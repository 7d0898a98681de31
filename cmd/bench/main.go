// Command bench runs the reproducible performance grid of
// internal/bench and writes the BENCH report JSON.
//
// Usage:
//
//	go run ./cmd/bench                  # full grid -> BENCH_6.json
//	go run ./cmd/bench -out other.json
//	go run ./cmd/bench -run sim/n32     # scenario name filter (substring)
//	go run ./cmd/bench -run largeN      # just the payload-path tier
//	go run ./cmd/bench -merge BENCH_5.json -run sharded
//	                                    # keep BENCH_5's rows byte-identical,
//	                                    # run and append only the new tier
//	go run ./cmd/bench -capture-baseline # print Go literal for baseline.go
//	go run ./cmd/bench -run tcploop/n4/s8/batch -count 5
//	                                    # five runs per cell: the report row is the
//	                                    # median-ns/op run, the spread goes to stderr
//	GOMAXPROCS=1 go run ./cmd/bench -run tcploop/n4/s8/batch -cpuprofile cpu.prof
//	                                    # profile one cell
//	GOMAXPROCS=1 go run ./cmd/bench -run tcploop/n4/s8/batch -memprofile mem.prof
//	                                    # every allocation recorded (not sampled);
//	                                    # objects/op per allocating site on stderr
//
// The scenario grid, seeds, and protocol metrics (msg/cs, grants,
// events) are deterministic; ns/op and allocs/op depend on the machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"mralloc/internal/bench"
)

// fatal reports err and exits: nothing the command does survives a
// file it cannot read or write.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// measure runs s count times and returns the run with the median
// ns/op, printing the spread of the repeats to stderr.
func measure(s bench.Scenario, count int) bench.Result {
	runs := make([]bench.Result, count)
	for i := range runs {
		runs[i] = bench.Measure(s)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	if count > 1 {
		fmt.Fprintf(os.Stderr, "  %d runs: ns/op min %d median %d max %d\n",
			count, runs[0].NsPerOp, runs[count/2].NsPerOp, runs[count-1].NsPerOp)
	}
	return runs[count/2]
}

// allocSites prints, for the allocation sites with the most objects,
// objects per operation: every allocation recorded since the profile
// rate was set, charged to the innermost mralloc function on its stack
// (so a context or a channel counts against the code that asked for
// it), over the ops the measured scenarios ran.
func allocSites(ops int64) {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; { // the profile may grow between the two calls
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
		}
	}
	objects := map[string]int64{}
	var total int64
	for i := range recs {
		site := "(outside mralloc)"
		for frames := runtime.CallersFrames(recs[i].Stack()); ; {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "mralloc/") {
				site = f.Function
				break
			}
			if !more {
				break
			}
		}
		objects[site] += recs[i].AllocObjects
		total += recs[i].AllocObjects
	}
	sites := make([]string, 0, len(objects))
	for site := range objects {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return objects[sites[i]] > objects[sites[j]] })
	const top = 30
	fmt.Fprintf(os.Stderr, "allocation sites, objects/op over %d ops (%.1f in all; set-up included):\n",
		ops, float64(total)/float64(ops))
	for _, site := range sites[:min(top, len(sites))] {
		fmt.Fprintf(os.Stderr, "  %6.2f  %s\n", float64(objects[site])/float64(ops), site)
	}
}

func main() {
	out := flag.String("out", "BENCH_6.json", "output report path")
	filter := flag.String("run", "", "only run scenarios whose name contains this substring")
	merge := flag.String("merge", "", "prior report whose rows are kept verbatim; scenarios it already has are skipped, new ones appended")
	capture := flag.Bool("capture-baseline", false, "print the measurements as a Go literal for baseline.go instead of writing the report")
	count := flag.Int("count", 1, "runs per scenario; the report keeps the run with the median ns/op and stderr shows min/median/max")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured scenarios to this file")
	memProfile := flag.String("memprofile", "", "record every allocation of the measured scenarios: write the profile to this file and print objects/op per allocating site to stderr")
	flag.Parse()
	if *count < 1 {
		fatal(fmt.Errorf("-count %d: need at least one run", *count))
	}

	var prior *bench.Report
	if *merge != "" {
		data, err := os.ReadFile(*merge)
		if err != nil {
			fatal(err)
		}
		prior = &bench.Report{}
		if err := json.Unmarshal(data, prior); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *merge, err)
			os.Exit(1)
		}
	}
	have := map[string]bool{}
	if prior != nil {
		for _, r := range prior.Current {
			have[r.Scenario] = true
		}
	}

	// profiledOps counts the iterations the scenarios run under
	// -memprofile, calibration rounds included: the profile covers them
	// all.
	var profiledOps int64
	if *memProfile != "" {
		// The default rate samples by bytes allocated, which makes
		// objects per site an estimate; this makes it a count.
		runtime.MemProfileRate = 1
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	var results []bench.Result
	for _, s := range bench.Grid() {
		if *filter != "" && !strings.Contains(s.Name, *filter) {
			continue
		}
		if have[s.Name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", s.Name)
		if run := s.Run; *memProfile != "" {
			s.Run = func(b *testing.B) {
				profiledOps += int64(b.N)
				run(b)
			}
		}
		results = append(results, measure(s, *count))
	}
	// Profiles are finished here, not in a defer: the exits below would
	// skip it and truncate them.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile is complete
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if profiledOps > 0 {
			allocSites(profiledOps)
		}
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no scenario matched")
		os.Exit(1)
	}

	if *capture {
		fmt.Println("var Baseline = []Result{")
		for _, r := range results {
			fmt.Printf("\t{Scenario: %q, NsPerOp: %d, AllocsPerOp: %d, BytesPerOp: %d, MsgPerCS: %v, GrantsPerOp: %d, EventsPerOp: %d, CSPerSec: %v},\n",
				r.Scenario, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.MsgPerCS, r.GrantsPerOp, r.EventsPerOp, r.CSPerSec)
		}
		fmt.Println("}")
		return
	}

	report := bench.NewReport(results)
	if prior != nil {
		report = bench.MergeReports(*prior, report)
	}
	data, err := report.Marshal()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	fmt.Print(report.Table())
}
