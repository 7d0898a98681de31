package driver

import (
	"runtime"
	"strings"
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/centralized"
	"mralloc/internal/core"
	"mralloc/internal/leakcheck"
	"mralloc/internal/metrics"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
	"mralloc/internal/workload"
)

func smallConfig() Config {
	return Config{
		Workload: workload.Config{
			N: 8, M: 16, Phi: 4,
			AlphaMin: 5 * sim.Millisecond,
			AlphaMax: 35 * sim.Millisecond,
			Gamma:    600 * sim.Microsecond,
			Rho:      1,
			Seed:     42,
		},
		Warmup:  100 * sim.Millisecond,
		Horizon: 2 * sim.Second,
		Drain:   true,
	}
}

func TestRunCentralizedEndToEnd(t *testing.T) {
	res, err := Run(smallConfig(), centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants < 50 {
		t.Fatalf("only %d grants in 2s of heavy load", res.Grants)
	}
	if res.UseRate <= 0 || res.UseRate > 1 {
		t.Fatalf("use rate %v out of range", res.UseRate)
	}
	if res.Waiting.Count == 0 || res.Waiting.Mean < 0 {
		t.Fatalf("waiting summary %+v", res.Waiting)
	}
	if res.Messages.Total != 0 {
		t.Fatalf("centralized comparator sent %d messages", res.Messages.Total)
	}
	if res.Ungranted != 0 {
		t.Fatalf("%d requests ungranted after drain", res.Ungranted)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(), centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if a.Grants != b.Grants || a.UseRate != b.UseRate || a.Waiting.Mean != b.Waiting.Mean || a.Events != b.Events {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a, _ := Run(cfg, centralized.NewFactory())
	cfg.Workload.Seed = 43
	b, _ := Run(cfg, centralized.NewFactory())
	if a.Grants == b.Grants && a.UseRate == b.UseRate && a.Waiting.Mean == b.Waiting.Mean {
		t.Fatal("different seeds produced identical results — RNG not wired through")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload.Phi = 0
	if _, err := Run(cfg, centralized.NewFactory()); err == nil {
		t.Fatal("invalid workload accepted")
	}
	cfg = smallConfig()
	cfg.Horizon = cfg.Warmup
	if _, err := Run(cfg, centralized.NewFactory()); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestRunRejectsWrongFactoryArity(t *testing.T) {
	bad := func(n, m int) []alg.Node { return centralized.NewFactory()(n-1, m) }
	if _, err := Run(smallConfig(), bad); err == nil {
		t.Fatal("wrong node count accepted")
	}
}

func TestWaitBucketsPlumbed(t *testing.T) {
	cfg := smallConfig()
	cfg.WaitBuckets = []int{1, 3}
	res, err := Run(cfg, centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WaitBuckets) != 2 || res.WaitBuckets[0].Edge != 1 || res.WaitBuckets[1].Edge != 3 {
		t.Fatalf("buckets = %+v", res.WaitBuckets)
	}
	total := res.WaitBuckets[0].Summary.Count + res.WaitBuckets[1].Summary.Count
	if total != res.Waiting.Count {
		t.Fatalf("bucket counts %d != overall %d", total, res.Waiting.Count)
	}
}

func TestTraceGrantObservesEveryCS(t *testing.T) {
	cfg := smallConfig()
	var seen int
	var lastRelease sim.Time
	cfg.TraceGrant = func(s network.NodeID, rs resource.Set, granted, released sim.Time) {
		seen++
		if released <= granted {
			t.Errorf("empty CS interval [%v,%v)", granted, released)
		}
		if rs.Empty() {
			t.Error("empty resource set traced")
		}
		lastRelease = released
	}
	res, err := Run(cfg, centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.Grants {
		t.Fatalf("traced %d grants, result says %d", seen, res.Grants)
	}
	if lastRelease == 0 {
		t.Fatal("trace never fired")
	}
}

// eager grants itself again after every release, asking nobody.
type eager struct {
	alg.Node
	env alg.Env
}

func (e *eager) Attach(env alg.Env) { e.env = env; e.Node.Attach(env) }
func (e *eager) Release()           { e.Node.Release(); e.env.Granted() }

// TestViolationCallbackUsed: the World's Monitor checks every grant of a
// run. A healthy run returns; a grant nobody asked for makes Run panic
// with the violation, so a run that breaks an invariant yields no result.
func TestViolationCallbackUsed(t *testing.T) {
	if _, err := Run(smallConfig(), centralized.NewFactory()); err != nil {
		t.Fatal(err)
	}
	bad := func(n, m int) []alg.Node {
		nodes := centralized.NewFactory()(n, m)
		for i := range nodes {
			nodes[i] = &eager{Node: nodes[i]}
		}
		return nodes
	}
	defer func() {
		p := recover()
		if v, ok := p.(verify.Violation); !ok || !strings.Contains(v.Desc, "without a pending request") {
			t.Fatalf("run with unasked grants: panic %v, want the Monitor's violation", p)
		}
	}()
	Run(smallConfig(), bad)
}

// TestUseRateConservation cross-checks the metrics pipeline: with no
// warmup, the aggregate use rate must equal the traced busy time
// (Σ over grants of |resources|·holding) over M × window, up to
// horizon clipping handled identically on both sides.
func TestUseRateConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup = 1 // metrics window ≈ full run
	var busy sim.Time
	cfg.TraceGrant = func(_ network.NodeID, rs resource.Set, granted, released sim.Time) {
		if released > cfg.Horizon {
			released = cfg.Horizon
		}
		if granted > cfg.Horizon {
			granted = cfg.Horizon
		}
		busy += sim.Time(rs.Len()) * (released - granted)
	}
	res, err := Run(cfg, centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	window := float64(cfg.Horizon - cfg.Warmup)
	want := float64(busy) / (window * float64(cfg.Workload.M))
	// Drain mode lets grants at the horizon release after it; both the
	// trace (clipped above) and the use-rate accumulator clip at the
	// horizon, so the two must agree tightly.
	if diff := res.UseRate - want; diff > 0.02 || diff < -0.02 {
		t.Fatalf("use rate %.4f vs traced %.4f", res.UseRate, want)
	}
}

// TestFairnessFieldsPopulated checks the Jain indices are in range and
// that JainGrants is the index over the sites' grant counts: with no
// warmup and a drained run every grant is measured and traced, so the
// trace's per-site counts must give the same index bit for bit.
func TestFairnessFieldsPopulated(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup = 1
	perSite := make([]float64, cfg.Workload.N)
	cfg.TraceGrant = func(s network.NodeID, _ resource.Set, _, _ sim.Time) { perSite[s]++ }
	res, err := Run(cfg, centralized.NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []float64{res.JainWait, res.JainGrants} {
		if j <= 0 || j > 1.0000001 {
			t.Fatalf("jain index %v out of range", j)
		}
	}
	if want := metrics.Jain(perSite); res.JainGrants != want {
		t.Fatalf("JainGrants = %v, traced per-site grants give %v", res.JainGrants, want)
	}
}

// TestRunRejectsNegativeProcessing: a negative service time is a
// configuration error returned to the caller, not a panic in network.
func TestRunRejectsNegativeProcessing(t *testing.T) {
	cfg := smallConfig()
	cfg.Processing = -sim.Millisecond
	if _, err := Run(cfg, centralized.NewFactory()); err == nil {
		t.Fatal("negative processing delay accepted")
	}
}

// TestRunPaperAllocs budgets the objects one run allocates per granted
// critical section, at the benchmark's sim_paper point and run length —
// the figure its allocs_per_op reports. A run builds its nodes from
// nothing, so this is where per-node and per-resource state built on
// first touch shows (the steady-state budgets of core see none of it);
// its message records come from the codec's pool, which the run before
// it (AllocsPerRun's warm-up, the benchmark's earlier rounds) left
// stocked. The run reads 2.47, alone and after the package's other
// tests. It read 2.65 with a record free list per factory call, 7.49
// with one per node, a fresh request set per request and a cloned
// missing set per loan round, 3.51 with scratch lists that grew by
// doubling and a fresh loan list per loan-queue walk, and 2.853 with
// token wait queues and loan lists that grew by doubling from nil; any
// one of those coming back breaks the budget. A cold run, the pools
// emptied first, is logged next to it and not budgeted: it reads 2.72,
// above the free list's 2.65, as its first activations find the pool
// empty.
func TestRunPaperAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	cfg := paperConfig(1, 8*sim.Second)
	grants := 0
	run := func() {
		res, err := Run(cfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		grants = res.Grants
	}
	// A collection moves a sync.Pool's contents aside and the next
	// drops them.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	cold := float64(after.Mallocs-before.Mallocs) / float64(grants)
	objects := testing.AllocsPerRun(1, run)
	if grants == 0 {
		t.Fatal("the run granted nothing")
	}
	per := objects / float64(grants)
	if per > 2.55 {
		t.Errorf("%.0f objects for %d grants: %.3f per grant, want ≤ 2.55", objects, grants, per)
	}
	t.Logf("%.0f objects for %d grants: %.3f per grant (%.3f cold)", objects, grants, per, cold)
}

// BenchmarkRunPaper is one run of eight simulated seconds at the
// benchmark's sim_paper point with loan — the loop to put under
// -cpuprofile when the simulated path is the subject. Next to ns per
// granted critical section it reports the objects allocated per grant,
// the figure TestRunPaperAllocs budgets.
func BenchmarkRunPaper(b *testing.B) {
	cfg := paperConfig(1, 8*sim.Second)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	grants := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			b.Fatal(err)
		}
		grants += res.Grants
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(grants), "ns/grant")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(grants), "allocs/grant")
}
