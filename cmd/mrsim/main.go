// Command mrsim is the simulator's command line: one ad-hoc run, the
// figures of the paper's evaluation section (§5), or the extension and
// ablation experiments, each as an ASCII table (or CSV).
//
//	mrsim run -alg counter-loan -n 32 -m 80 -phi 16 -rho 0.5 -dur 5s
//	mrsim run -alg bouabdallah-laforest -phi 8 -gantt -m 10 -n 6
//	mrsim fig -fig 5a          # Figure 5(a): use rate vs φ, medium load
//	mrsim fig -fig all -scale full
//	mrsim fig -diff internal/experiments/testdata   # what did this tree do to the figures?
//	mrsim sweep -exp threshold # E1: loan threshold (the paper's future work)
//	mrsim sweep -exp msgs -csv # message complexity incl. the broadcast baseline
//
// run prints one run's measurements, optionally with a Gantt diagram
// of resource occupancy (the visualization of the paper's Figures 1
// and 4). Figures: 5a 5b 6a 6b 7a 7b; experiments: threshold cloud
// markfn opts msgs fairness hotspot (see internal/experiments/names.go);
// "all" runs the whole list. Scales: quick, std (default), full — they
// trade simulated horizon and seed count for runtime.
//
// With -diff <dir>, fig and sweep print no table: they run the selected
// ones at quick scale and compare each with its recording
// <dir>/<name>_quick.csv (the goldens of experiments.TestFigureGoldens:
// the six figures and "msgs"), one "old → new" line per differing cell,
// and exit 1 if there was any.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	diff := fs.String("diff", "", "compare with the tables recorded in `dir` (<name>_quick.csv, quick scale) instead of printing")
	fs.Parse(args)

	if *diff != "" {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "scale" && *scale != "quick" || f.Name == "csv" {
				fmt.Fprintf(os.Stderr, "mrsim: -diff compares at quick scale and prints no table: -%s does not go with it\n", f.Name)
				os.Exit(2)
			}
		})
		*scale = "quick"
	}
	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "mrsim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	ran, differ := 0, false
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
		switch {
		case *diff != "":
			recorded, err := os.ReadFile(filepath.Join(*diff, e.Name+"_quick.csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrsim: %s %s has no recording: %v\n", what, e.Name, err)
				os.Exit(1)
			}
			for _, line := range diffTable(tab, string(recorded)) {
				differ = true
				fmt.Printf("%s %s\n", e.Name, line)
			}
		case *csv:
			fmt.Print(tab.CSV())
		default:
			fmt.Println(tab.String())
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "mrsim: unknown %s %q\n", what, *pick)
		os.Exit(2)
	}
	if differ {
		os.Exit(1)
	}
}

// diffTable compares tab with a recording of the same table in CSV form
// and returns one line per cell that differs — "row, column: old → new",
// a row named by its first cell. A row only one side has is one line,
// and so is a changed header, after which no cell can be matched.
func diffTable(tab experiments.Table, recorded string) []string {
	parse := func(csv string) (rows [][]string) {
		for _, line := range strings.Split(strings.TrimSuffix(csv, "\n"), "\n") {
			rows = append(rows, strings.Split(line, ","))
		}
		return rows
	}
	old, cur := parse(recorded), parse(tab.CSV())
	if a, b := strings.Join(old[0], ","), strings.Join(cur[0], ","); a != b {
		return []string{fmt.Sprintf("header: %s → %s", a, b)}
	}
	header := cur[0]
	was := make(map[string][]string, len(old))
	for _, row := range old[1:] {
		was[row[0]] = row
	}
	var out []string
	for _, row := range cur[1:] {
		prev, ok := was[row[0]]
		if !ok {
			out = append(out, fmt.Sprintf("%s=%s: not in the recording", header[0], row[0]))
			continue
		}
		delete(was, row[0])
		for i := 1; i < len(row) && i < len(prev); i++ {
			if row[i] != prev[i] {
				out = append(out, fmt.Sprintf("%s=%s, %s: %s → %s", header[0], row[0], header[i], prev[i], row[i]))
			}
		}
	}
	for _, row := range old[1:] {
		if _, gone := was[row[0]]; gone {
			out = append(out, fmt.Sprintf("%s=%s: recorded, no longer produced", header[0], row[0]))
		}
	}
	return out
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
	if *gantt && *width < 1 {
		fmt.Fprintf(os.Stderr, "mrsim: -width %d: a Gantt chart needs at least one column\n", *width)
		os.Exit(2)
	}

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
