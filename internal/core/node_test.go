package core

import (
	"testing"
	"testing/quick"

	"mralloc/internal/alg"
	"mralloc/internal/driver"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

func runCfg(seed int64) driver.Config {
	return driver.Config{
		Workload: workload.Config{
			N: 8, M: 16, Phi: 6,
			AlphaMin: 5 * sim.Millisecond,
			AlphaMax: 35 * sim.Millisecond,
			Gamma:    600 * sim.Microsecond,
			Rho:      1,
			Seed:     seed,
		},
		Warmup:  50 * sim.Millisecond,
		Horizon: 2 * sim.Second,
		Drain:   true,
	}
}

// captureFactory wraps NewFactory so tests can inspect node internals
// after a run.
func captureFactory(opt Options) (alg.Factory, *[]*Node) {
	nodes := new([]*Node)
	f := func(n, m int) []alg.Node {
		out := NewFactory(opt)(n, m)
		*nodes = (*nodes)[:0]
		for _, x := range out {
			*nodes = append(*nodes, x.(*Node))
		}
		return out
	}
	return f, nodes
}

func totals(nodes []*Node) Counters {
	var c Counters
	for _, nd := range nodes {
		s := nd.Counters()
		c.LoanAsks += s.LoanAsks
		c.LoansGranted += s.LoansGranted
		c.LoanReturns += s.LoanReturns
		c.Yields += s.Yields
		c.SingleFast += s.SingleFast
	}
	return c
}

func TestSafetyAndLivenessWithoutLoan(t *testing.T) {
	res, err := driver.Run(runCfg(1), NewFactory(WithoutLoan()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants < 50 || res.Ungranted != 0 {
		t.Fatalf("grants=%d ungranted=%d", res.Grants, res.Ungranted)
	}
}

func TestSafetyAndLivenessWithLoan(t *testing.T) {
	res, err := driver.Run(runCfg(1), NewFactory(WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants < 50 || res.Ungranted != 0 {
		t.Fatalf("grants=%d ungranted=%d", res.Grants, res.Ungranted)
	}
}

// TestManySeedsBothVariants explores interleavings with the invariant
// monitor armed; any safety break panics, any starvation fails drain.
func TestManySeedsBothVariants(t *testing.T) {
	for _, opt := range []Options{WithoutLoan(), WithLoan()} {
		opt := opt
		prop := func(seed int64) bool {
			c := runCfg(seed)
			c.Horizon = 500 * sim.Millisecond
			res, err := driver.Run(c, NewFactory(opt))
			return err == nil && res.Ungranted == 0 && res.Grants > 0
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("loan=%v: %v", opt.Loan, err)
		}
	}
}

// TestHighContentionTinyPool maximizes conflicts (every request touches
// most of a 4-resource pool under saturation) — the regime where queue
// yields, pendingReq replay and loan inversions all fire.
func TestHighContentionTinyPool(t *testing.T) {
	for _, opt := range []Options{WithoutLoan(), WithLoan()} {
		c := runCfg(2)
		c.Workload.M = 4
		c.Workload.Phi = 3
		c.Workload.Rho = 0.1
		res, err := driver.Run(c, NewFactory(opt))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ungranted != 0 || res.Grants == 0 {
			t.Fatalf("loan=%v grants=%d ungranted=%d", opt.Loan, res.Grants, res.Ungranted)
		}
	}
}

// TestAllOptimizationsDisabled checks the protocol stays correct
// without the §4.6 fast paths and §4.2.2 aggregation (ablation A2).
func TestAllOptimizationsDisabled(t *testing.T) {
	opt := Options{
		Loan:                true,
		DisableSingleResOpt: true,
		DisableShortcut:     true,
		DisableForwardStop:  true,
		DisableAggregation:  true,
	}
	res, err := driver.Run(runCfg(3), NewFactory(opt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ungranted != 0 || res.Grants < 50 {
		t.Fatalf("grants=%d ungranted=%d", res.Grants, res.Ungranted)
	}
}

// TestAggregationReducesMessages: identical workload, aggregation on vs
// off — on must send no more messages (it merges, never splits).
func TestAggregationReducesMessages(t *testing.T) {
	on, err := driver.Run(runCfg(4), NewFactory(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	off, err := driver.Run(runCfg(4), NewFactory(Options{DisableAggregation: true}))
	if err != nil {
		t.Fatal(err)
	}
	if on.Messages.Total > off.Messages.Total {
		t.Fatalf("aggregation increased traffic: %d > %d", on.Messages.Total, off.Messages.Total)
	}
}

// TestSingleResourceFastPath: with φ=1 every request is a single, so
// the fast path must carry all of them, and no separate Counter replies
// are needed (responses carry tokens only).
func TestSingleResourceFastPath(t *testing.T) {
	factory, nodes := captureFactory(Options{})
	c := runCfg(5)
	c.Workload.Phi = 1
	res, err := driver.Run(c, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ungranted != 0 {
		t.Fatalf("%d starved", res.Ungranted)
	}
	tot := totals(*nodes)
	if tot.SingleFast == 0 {
		t.Fatal("fast path never used at φ=1")
	}
	// The fast path should make single-resource admission cheaper than
	// the two-round-trip base protocol.
	cOff := c
	off, err := driver.Run(cOff, NewFactory(Options{DisableSingleResOpt: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgPerGrant >= off.MsgPerGrant {
		t.Fatalf("fast path did not reduce messages: %.2f ≥ %.2f", res.MsgPerGrant, off.MsgPerGrant)
	}
}

// TestLoanMechanismFires: under saturation with mid-size requests the
// loan machinery must actually trigger across a handful of seeds (the
// paper's Figure 5(b) regime), and every borrowed token must come home
// (the drain succeeds with zero pending).
func TestLoanMechanismFires(t *testing.T) {
	asked, granted := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		factory, nodes := captureFactory(WithLoan())
		c := runCfg(seed)
		c.Workload.M = 12
		c.Workload.Phi = 6
		c.Workload.Rho = 0.1
		res, err := driver.Run(c, factory)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ungranted != 0 {
			t.Fatalf("seed %d: %d starved", seed, res.Ungranted)
		}
		tot := totals(*nodes)
		asked += tot.LoanAsks
		granted += tot.LoansGranted
		// Whatever was lent must have been returned by quiescence.
		for _, nd := range *nodes {
			if !nd.lent.Empty() {
				t.Fatalf("seed %d: node %d still has lent=%v at quiescence", seed, nd.self(), nd.lent)
			}
		}
	}
	if asked == 0 {
		t.Fatal("loan mechanism never asked across 5 saturated runs")
	}
	if granted == 0 {
		t.Fatal("loan mechanism never granted across 5 saturated runs")
	}
}

// TestQuiescentTokenState: after a drained run, exactly one site owns
// each token, no queue has leftovers, and nothing is marked lent.
func TestQuiescentTokenState(t *testing.T) {
	factory, nodes := captureFactory(WithLoan())
	res, err := driver.Run(runCfg(6), factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ungranted != 0 {
		t.Fatal("drain incomplete")
	}
	m := 16
	for r := 0; r < m; r++ {
		owners := 0
		for _, nd := range *nodes {
			if nd.owned.Has(resource.ID(r)) {
				owners++
				tok := nd.tok[r]
				if len(tok.Queue) != 0 {
					t.Errorf("resource %d: queue %v left at quiescence", r, tok.Queue)
				}
				if tok.Lender != -1 {
					t.Errorf("resource %d: lender %d left at quiescence", r, tok.Lender)
				}
			}
		}
		if owners != 1 {
			t.Errorf("resource %d has %d owners", r, owners)
		}
	}
}

func TestMarkFunctionVariantsAllCorrect(t *testing.T) {
	for _, mf := range []struct {
		name string
		fn   MarkFunc
	}{
		{"avg", AvgNonZero}, {"max", MaxNonZero}, {"sum", SumNonZero}, {"min", MinNonZero},
	} {
		c := runCfg(7)
		c.Horizon = 800 * sim.Millisecond
		res, err := driver.Run(c, NewFactory(Options{Loan: true, Mark: mf.fn}))
		if err != nil {
			t.Fatalf("%s: %v", mf.name, err)
		}
		if res.Ungranted != 0 || res.Grants == 0 {
			t.Fatalf("%s: grants=%d ungranted=%d", mf.name, res.Grants, res.Ungranted)
		}
	}
}

func TestLoanThresholdVariants(t *testing.T) {
	for _, th := range []int{1, 2, 4} {
		c := runCfg(8)
		c.Workload.Rho = 0.2
		c.Horizon = 800 * sim.Millisecond
		res, err := driver.Run(c, NewFactory(Options{Loan: true, LoanThreshold: th}))
		if err != nil {
			t.Fatalf("threshold %d: %v", th, err)
		}
		if res.Ungranted != 0 {
			t.Fatalf("threshold %d: %d starved", th, res.Ungranted)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := driver.Run(runCfg(9), NewFactory(WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.Run(runCfg(9), NewFactory(WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Grants != b.Grants || a.Messages.Total != b.Messages.Total ||
		a.UseRate != b.UseRate || a.Waiting.Mean != b.Waiting.Mean {
		t.Fatal("same seed diverged")
	}
}

func TestMessageKindsPresent(t *testing.T) {
	res, err := driver.Run(runCfg(10), NewFactory(WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"LASS.Request", "LASS.Response"} {
		if res.Messages.ByKind[k] == 0 {
			t.Errorf("no %s traffic: %v", k, res.Messages)
		}
	}
}

// TestLargeSystem scales to the paper's N=32, M=80 shape once, with
// both variants, under the full monitor.
func TestLargeSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("large system run")
	}
	for _, opt := range []Options{WithoutLoan(), WithLoan()} {
		c := driver.Config{
			Workload: workload.Config{
				N: 32, M: 80, Phi: 16,
				AlphaMin: 5 * sim.Millisecond,
				AlphaMax: 35 * sim.Millisecond,
				Gamma:    600 * sim.Microsecond,
				Rho:      0.5,
				Seed:     12,
			},
			Warmup:  100 * sim.Millisecond,
			Horizon: 2 * sim.Second,
			Drain:   true,
		}
		res, err := driver.Run(c, NewFactory(opt))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ungranted != 0 || res.Grants < 100 {
			t.Fatalf("loan=%v grants=%d ungranted=%d", opt.Loan, res.Grants, res.Ungranted)
		}
	}
}

// TestFailedLoanPathExercised hunts across seeds for a run where a
// loan fails (the borrower yielded other tokens before the borrowed
// ones arrived and bounced them back — hardening deviation 4), then
// checks the run still drains with zero starvation. The seed scan is
// deterministic, so this is a stable regression test for the
// failed-loan return and re-request machinery.
func TestFailedLoanPathExercised(t *testing.T) {
	found := false
	for seed := int64(0); seed < 60 && !found; seed++ {
		factory, nodes := captureFactory(WithLoan())
		c := runCfg(seed)
		c.Workload.M = 10
		c.Workload.Phi = 5
		c.Workload.Rho = 0.05
		c.Horizon = 1500 * sim.Millisecond
		res, err := driver.Run(c, factory)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ungranted != 0 {
			t.Fatalf("seed %d: %d starved", seed, res.Ungranted)
		}
		if totals(*nodes).LoanReturns > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no seed exercised the failed-loan return in 60 tries — did the loan race disappear?")
	}
}

// TestConcurrencyProperty pins the paper's third property (§1): two
// processes with disjoint resource sets execute their critical
// sections concurrently — neither waits for the other.
func TestConcurrencyProperty(t *testing.T) {
	h := newTimed(3, 4, WithLoan())
	// Disjoint requests issued at the same instant; both tokensets live
	// at node 0 initially, so both requesters talk only to node 0.
	h.at(1, func() { h.Request(1, ids(4, 0, 1)) })
	h.at(1, func() { h.Request(2, ids(4, 2, 3)) })
	h.at(10, func() {
		if h.nodes[1].st != stInCS || h.nodes[2].st != stInCS {
			t.Fatalf("states %v/%v: disjoint requests must overlap in CS",
				h.nodes[1].st, h.nodes[2].st)
		}
	})
	h.Run()
	h.Release(1)
	h.Release(2)
}
