// Command mrsim is the simulator's command line: one ad-hoc run, the
// figures of the paper's evaluation section (§5), or the extension and
// ablation experiments, each as an ASCII table (or CSV).
//
//	mrsim run -alg counter-loan -n 32 -m 80 -phi 16 -rho 0.5 -dur 5s
//	mrsim run -alg bouabdallah-laforest -phi 8 -gantt -m 10 -n 6
//	mrsim fig -fig 5a          # Figure 5(a): use rate vs φ, medium load
//	mrsim fig -fig all -scale full
//	mrsim sweep -exp threshold # E1: loan threshold (the paper's future work)
//	mrsim sweep -exp msgs -csv # message complexity incl. the broadcast baseline
//
// run prints one run's measurements, optionally with a Gantt diagram
// of resource occupancy (the visualization of the paper's Figures 1
// and 4). Figures: 5a 5b 6a 6b 7a 7b; experiments: threshold cloud
// markfn opts msgs fairness hotspot (see internal/experiments/names.go);
// "all" runs the whole list. Scales: quick, std (default), full — they
// trade simulated horizon and seed count for runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mralloc/internal/driver"
	"mralloc/internal/experiments"
	"mralloc/internal/sim"
	"mralloc/internal/trace"
	"mralloc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch args := os.Args[2:]; os.Args[1] {
	case "run":
		runOne(args)
	case "fig":
		tables("fig", "figure", experiments.Figures, args)
	case "sweep":
		tables("exp", "experiment", experiments.Sweeps, args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mrsim run|fig|sweep [flags]  (-h after a subcommand lists its flags)")
	os.Exit(2)
}

// tables runs the entries of list that -<sel> names and prints each
// resulting table.
func tables(sel, what string, list []experiments.Experiment, args []string) {
	names := make([]string, len(list))
	for i, e := range list {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("mrsim "+os.Args[1], flag.ExitOnError)
	pick := fs.String(sel, "all", what+": "+strings.Join(names, " ")+" all")
	scale := fs.String("scale", "std", "simulation scale: quick std full")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	fs.Parse(args)

	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "mrsim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	ran := 0
	for _, e := range list {
		if *pick != "all" && *pick != e.Name {
			continue
		}
		ran++
		tab, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsim: %s %s: %v\n", what, e.Name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "mrsim: unknown %s %q\n", what, *pick)
		os.Exit(2)
	}
}

// runOne simulates one configuration and prints what it measured.
func runOne(args []string) {
	fs := flag.NewFlagSet("mrsim run", flag.ExitOnError)
	algName := fs.String("alg", "counter-loan", strings.Join(experiments.AlgorithmNames(), " | "))
	n := fs.Int("n", 32, "number of nodes N")
	m := fs.Int("m", 80, "number of resources M")
	phi := fs.Int("phi", 16, "maximum request size φ")
	rho := fs.Float64("rho", 0.5, "load ratio ρ = β/(α+γ); lower = heavier")
	dur := fs.Duration("dur", 5*time.Second, "simulated duration")
	seed := fs.Int64("seed", 1, "random seed")
	proc := fs.Duration("proc", 600*time.Microsecond, "per-message processing time δ at receivers (0 disables)")
	gantt := fs.Bool("gantt", false, "print an occupancy Gantt diagram")
	width := fs.Int("width", 100, "gantt width in columns")
	fs.Parse(args)

	a, ok := experiments.AlgorithmByName(*algName)
	if !ok {
		fmt.Fprintf(os.Stderr, "mrsim: unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	rec := trace.NewRecorder(*m)
	cfg := driver.Config{
		Workload: workload.Config{
			N: *n, M: *m, Phi: *phi,
			AlphaMin: 5 * sim.Millisecond,
			AlphaMax: 35 * sim.Millisecond,
			Gamma:    600 * sim.Microsecond,
			Rho:      *rho,
			Seed:     *seed,
		},
		Processing: sim.Time(*proc),
		Warmup:     sim.Time(*dur) / 10,
		Horizon:    sim.Time(*dur),
	}
	if *gantt {
		cfg.TraceGrant = rec.Grant
	}
	res, err := driver.Run(cfg, experiments.Factory(a))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("algorithm        %s\n", a)
	fmt.Printf("N=%d M=%d φ=%d ρ=%.2f duration=%v seed=%d\n", *n, *m, *phi, *rho, *dur, *seed)
	fmt.Printf("use rate         %.2f%%\n", 100*res.UseRate)
	fmt.Printf("waiting time     %.2f ms (σ %.2f, min %.2f, max %.2f, %d samples)\n",
		res.Waiting.Mean, res.Waiting.StdDev, res.Waiting.Min, res.Waiting.Max, res.Waiting.Count)
	fmt.Printf("grants           %d (%d requests still pending at cut-off)\n", res.Grants, res.Ungranted)
	fmt.Printf("messages         %v\n", res.Messages)
	fmt.Printf("msgs per CS      %.2f\n", res.MsgPerGrant)
	fmt.Printf("simulator events %d\n", res.Events)
	if *gantt {
		from := cfg.Warmup
		until := from + (cfg.Horizon-cfg.Warmup)/4 // a readable quarter
		fmt.Println()
		fmt.Print(rec.Gantt(from, until, *width))
	}
}
