// Command bench measures and profiles the live cells of internal/bench,
// one or a few at a time. It writes no report: the repository's numbers
// come from `bash benchmark/run.sh` (benchmark/README.md).
//
// Usage:
//
//	go run ./cmd/bench                  # every cell, one line each
//	go run ./cmd/bench -run largeN      # cell name filter (substring)
//	go run ./cmd/bench -run tcploop/n4/s8/batch -count 5
//	                                    # five runs, then ns/op min/median/max
//	GOMAXPROCS=1 go run ./cmd/bench -run tcploop/n4/s8/batch -cpuprofile cpu.prof
//	                                    # profile one cell
//	GOMAXPROCS=1 go run ./cmd/bench -run tcploop/n4/s8/batch -memprofile mem.prof
//	                                    # every allocation recorded (not sampled);
//	                                    # objects/op per allocating site follows
//
// Each line is the cell's testing.BenchmarkResult: iterations, ns/op,
// every metric the cell reports (msg_per_cs, wire_bytes_per_op, …),
// B/op and allocs/op. Protocol counters repeat to within run jitter;
// ns/op and allocs/op depend on the machine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"mralloc/internal/bench"
)

type options struct {
	filter                 string
	count                  int
	cpuProfile, memProfile string
}

func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.filter, "run", "", "only run cells whose name contains this substring")
	fs.IntVar(&o.count, "count", 1, "runs per cell; more than one also prints ns/op min/median/max")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured cells to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "record every allocation of the measured cells: write the profile to this file and print objects/op per allocating site")
}

// allocSites prints, for the allocation sites with the most objects,
// objects per operation: every allocation recorded since the profile
// rate was set, charged to the innermost mralloc function on its stack
// (so a context or a channel counts against the code that asked for
// it), over the ops the measured cells ran.
func allocSites(w io.Writer, ops int64) {
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
	fmt.Fprintf(w, "allocation sites, objects/op over %d ops (%.1f in all; set-up included):\n",
		ops, float64(total)/float64(ops))
	for _, site := range sites[:min(top, len(sites))] {
		fmt.Fprintf(w, "  %6.2f  %s\n", float64(objects[site])/float64(ops), site)
	}
}

// measure runs c count times, printing one result line per run and,
// for more than one, the spread of ns/op.
func measure(w io.Writer, c bench.Cell, count int) error {
	ns := make([]int64, count)
	for i := range ns {
		r, err := bench.Measure(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s %s %s\n", c.Name, r, r.MemString())
		ns[i] = r.NsPerOp()
	}
	if count > 1 {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		fmt.Fprintf(w, "  %d runs: ns/op min %d median %d max %d\n",
			count, ns[0], ns[count/2], ns[count-1])
	}
	return nil
}

// run is main without the process: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	registerFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.count < 1 {
		return fail(fmt.Errorf("-count %d: need at least one run", o.count))
	}
	var cells []bench.Cell
	for _, c := range bench.Cells() {
		if strings.Contains(c.Name, o.filter) {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		return fail(fmt.Errorf("no scenario matched"))
	}

	// profiledOps counts the iterations the cells run under
	// -memprofile, calibration rounds included: the profile covers them
	// all.
	var profiledOps int64
	if o.memProfile != "" {
		// The default rate samples by bytes allocated, which makes
		// objects per site an estimate; this makes it a count.
		runtime.MemProfileRate = 1
	}
	var cpuFile *os.File
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		cpuFile = f
	}
	var failed error
	for _, c := range cells {
		if run := c.Run; o.memProfile != "" {
			c.Run = func(b *testing.B) {
				profiledOps += int64(b.N)
				run(b)
			}
		}
		if failed = measure(stdout, c, o.count); failed != nil {
			break
		}
	}
	// Profiles are finished on the failure path too: what ran is in them.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return fail(err)
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return fail(err)
		}
		runtime.GC() // settle the heap so the profile is complete
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		if profiledOps > 0 {
			allocSites(stdout, profiledOps)
		}
	}
	if failed != nil {
		return fail(failed)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
