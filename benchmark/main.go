// Command benchmark is the repository's benchmark: seven named
// workloads, end-to-end metrics from an untraced run, per-layer metrics
// from a run traced on the program's own seams. See README.md.
//
// Run it from the repository root through benchmark/run.sh, which
// builds it inside the checkout:
//
//	bash benchmark/run.sh -seed 1 -trace 1 -out results.json   # all workloads
//	bash benchmark/run.sh --workload tcp_closed --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -agree a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envStamp records where and on what a result set was measured.
type envStamp struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"kernel"`
	LoadAvg1  float64 `json:"loadavg_1min_at_start"`
	Commit    string  `json:"git_commit"`
	Link      string  `json:"link"`
	StartedAt string  `json:"started_at"`
}

func stampEnv() envStamp {
	e := envStamp{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Kernel:    "unknown",
		LoadAvg1:  -1,
		Commit:    gitCommit(),
		Link:      "TCP over host loopback (127.0.0.1), not a real link; Mem fabric is in-process",
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &e.LoadAvg1)
	}
	return e
}

// gitCommit reads the checked-out commit without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Schema    string                 `json:"schema"`
	Env       envStamp               `json:"environment"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Workloads []*row                 `json:"workloads"`
	Probes    map[string]metricValue `json:"probes,omitempty"`
}

const resultSchema = "mralloc-benchmark/1"

// outDir is where trace files go, relative to the repository root
// (tests point it at a temporary directory).
var outDir = "benchmark/out"

type options struct {
	seed    int64
	seconds int // 0 = each workload's own window
	trace   bool
	smoke   bool
}

func (o options) window(w *workloadSpec) (warm, slice time.Duration, slices int) {
	seconds, warm := w.seconds, warmup
	if o.seconds > 0 {
		seconds = o.seconds
	}
	if o.smoke {
		seconds, warm = 2, smokeWarmup
	}
	slices = max(1, int(time.Duration(seconds)*time.Second/sliceDur))
	return warm, time.Duration(seconds) * time.Second / time.Duration(slices), slices
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the result as one JSON line (the driver's contract); empty runs all seven")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "measured window per run in seconds (0 = each workload's own)")
		trace    = flag.Int("trace", 0, "1 repeats each workload with the seam wrappers installed and reports the per-layer metrics")
		out      = flag.String("out", "", "write the result set to this file")
		smoke    = flag.Bool("smoke", false, "2 s windows and a short warm-up: checks that everything runs, measures nothing")
		agree    = flag.Bool("agree", false, "compare two result files (arguments) against the bounds in BENCHMARK.json")
		mfest    = flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it")
		rowOnly  = flag.Bool("row", false, "with -workload: print the workload's whole row as JSON instead of the contract object (what the full run asks of its child processes)")
	)
	flag.Parse()
	switch {
	case *mfest:
		b, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(b))
		return
	case *agree:
		if flag.NArg() != 2 {
			fatal("-agree takes exactly two result files")
		}
		os.Exit(agreeFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json"))
	}
	if flag.NArg() > 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	switch {
	case *workload != "" && *rowOnly:
		os.Exit(rowRun(*workload, opt))
	case *workload != "":
		os.Exit(contractRun(*workload, opt))
	}

	res := resultFile{Schema: resultSchema, Env: stampEnv(), Seed: opt.seed, Traced: opt.trace}
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "running %s ...\n", w.name)
		r, err := runInChild(w, opt)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		ok = ok && r.Valid
		res.Workloads = append(res.Workloads, r)
		var sb strings.Builder
		printRow(&sb, r)
		fmt.Print(sb.String())
	}
	if opt.trace {
		probes, err := runProbes()
		if err != nil {
			fatal("probes: %v", err)
		}
		res.Probes = make(map[string]metricValue)
		fmt.Printf("\n== probes (single layers in isolation)\n")
		for _, m := range perLayer {
			if v, isProbe := probes[m.name]; isProbe {
				res.Probes[m.name] = metricValue{v, m.unit}
				fmt.Printf("  %-36s %14s %s\n", m.name, formatValue(v), m.unit)
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: at least one workload failed a validity gate")
		os.Exit(1)
	}
}

// runInChild measures w in a process of its own, as the driver does:
// what one workload leaves behind in the runtime — a grown heap, the
// scavenger returning it — is CPU and latency on the next one's bill
// (lossy cost 277 us per op after five other workloads, 217 us alone).
func runInChild(w *workloadSpec, opt options) (*row, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-row", "-workload", w.name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds)}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, err
	}
	var r row
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("child printed no row: %w", err)
	}
	return &r, nil
}

// rowRun is the child side of runInChild.
func rowRun(name string, opt options) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", name)
		return 2
	}
	r, err := runWorkload(w, opt)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	return 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// contractRun is the driver's interface: one workload, one JSON object
// as the last line of standard output holding every end_to_end metric
// of BENCHMARK.json (--trace 0) or every per_layer one (--trace 1).
func contractRun(name string, opt options) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", name)
		return 2
	}
	if opt.trace && opt.seconds > 0 {
		// A traced run measures twice, untraced then traced; under the
		// driver's clock the two share the window it asked for.
		opt.seconds = max(2, opt.seconds/2)
	}
	r, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	want := gatedMetrics()
	if opt.trace {
		want = ungatedMetrics()
		probes, err := runProbes()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: probes: %v\n", err)
			return 1
		}
		for k, v := range probes {
			r.set(k, v)
		}
	}
	var sb strings.Builder
	printRow(&sb, r)
	fmt.Println(sb.String())
	metrics := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := r.EndToEnd[m.name]
		if !ok {
			v, ok = r.PerLayer[m.name]
		}
		if !ok {
			if m.class == classGated {
				fmt.Fprintf(os.Stderr, "benchmark: %s produced no %s\n", name, m.name)
				return 1
			}
			v = metricValue{0, m.unit} // not applicable to this workload
		}
		metrics[m.name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{!r.Incorrect, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// A run builds its deployment again and again — at least setupMin
// times, then until setupBudget is spent or setupMax is reached — and
// reports the median set-up time. The in-process deployments come up in
// under 100 µs, where one scheduler hiccup is a 50 % error; a median of
// hundreds is what makes that number repeat.
const (
	setupMin    = 21
	setupMax    = 401
	setupBudget = 600 * time.Millisecond
)

// moreSetups reports whether set-up number i (from 0) should still run.
func moreSetups(i int, since time.Time) bool {
	return i < setupMin || (i < setupMax && time.Since(since) < setupBudget)
}

func newRow(w *workloadSpec, opt options, seconds int) *row {
	return &row{
		Workload:   w.name,
		Procs:      runtime.GOMAXPROCS(0),
		Why:        w.why,
		StreamHash: fmt.Sprintf("%016x", streamHash(w, opt.seed)),
		Seconds:    seconds,
		Valid:      true,
		EndToEnd:   make(map[string]metricValue),
	}
}

// runWorkload measures one workload: set-up several times, an untraced
// run for the end-to-end numbers and, when asked, a traced run of the
// same length for the per-layer ones.
func runWorkload(w *workloadSpec, opt options) (*row, error) {
	warm, slice, slices := opt.window(w)
	if os.Getenv("GOMAXPROCS") == "" { // set, it overrides the workload's own (to measure what a second P costs)
		runtime.GOMAXPROCS(w.procs())
	}
	r := newRow(w, opt, int((slice * time.Duration(slices)).Round(time.Second).Seconds()))
	if w.sim() {
		return r, simWorkload(r, w, opt, slice, slices)
	}
	sizes, err := shardSizes(w)
	if err != nil {
		return nil, err
	}

	// Set-up: constructors → first grant, several times; the last
	// deployment is the one measured.
	var d *deployment
	var setups []float64
	for i, start := 0, time.Now(); moreSetups(i, start); i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = deploy(w, opt.seed, nil); err != nil {
			return nil, err
		}
		if err := d.firstGrants(); err != nil {
			d.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	res, err := runLoad(d, opt.seed, warm, slice, slices, nil)
	d.close()
	if err != nil {
		return nil, err
	}
	endToEndRow(r, w, res)
	if !opt.trace {
		return r, nil
	}

	tr := newTracer(w.nodes, sizes, w.resources, locator(w), true)
	if d, err = deploy(w, opt.seed, tr); err != nil {
		return nil, err
	}
	if err := d.firstGrants(); err != nil {
		d.close()
		return nil, err
	}
	tres, err := runLoad(d, opt.seed, warm, slice, slices, tr)
	d.close()
	if err != nil {
		return nil, err
	}
	layerRow(r, w, tres, tr)
	if base := r.EndToEnd["ops_per_s"].Value; base > 0 {
		r.set("trace.overhead_share", 1-quietHigh(grantRates(tres.deltas()))/base)
	}
	if tres.doubles > 0 {
		r.incorrect("owner table saw %d double grants in the traced run", tres.doubles)
	}
	if r.TraceFile, err = tr.write(outDir, w.name, opt.seed); err != nil {
		return nil, err
	}
	return r, nil
}
