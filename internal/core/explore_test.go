package core

import (
	"fmt"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// tokenInvariant is core's check at every explored state: each resource
// has exactly one token of its newest epoch, counted across the nodes
// and the messages in flight; a lent token comes home — once nothing is
// in flight and every site is idle, nothing is out on loan; and the
// father pointers form no cycle (fathersInvariant).
func tokenInvariant(nodes []alg.Node, inflight []explore.Msg) error {
	if err := fathersInvariant(nodes, inflight); err != nil {
		return err
	}
	m := len(nodes[0].(*Node).tok)
	count, epoch := make([]int, m), make([]int64, m)
	quiet := len(inflight) == 0
	var toks []*token
	for _, a := range nodes {
		nd := a.(*Node)
		quiet = quiet && nd.st == stIdle && !nd.entryHeld
		for _, t := range nd.tok {
			if t != nil {
				toks = append(toks, t)
			}
		}
	}
	for _, x := range inflight {
		if b, ok := x.M.(*respBatch); ok {
			toks = append(toks, b.Tokens...)
		}
	}
	for _, t := range toks {
		if t.Epoch > epoch[t.R] {
			epoch[t.R], count[t.R] = t.Epoch, 0
		}
		if t.Epoch == epoch[t.R] {
			count[t.R]++
		}
		if quiet && t.Lender != network.None {
			return fmt.Errorf("token of r%d still lent by s%d with every site idle", t.R, t.Lender)
		}
	}
	for r, c := range count {
		if c != 1 {
			return fmt.Errorf("r%d has %d tokens of epoch %d", r, c, epoch[r])
		}
	}
	for i, a := range nodes {
		if lent := a.(*Node).lent; quiet && !lent.Empty() {
			return fmt.Errorf("s%d still lends %v with every site idle", i, lent)
		}
	}
	return nil
}

// fathersInvariant is deviation 6's safety argument, checked: from every
// site that does not own a resource's token, the father pointers lead
// to a site that holds a token of it, or to where one is in flight,
// through holdings that grow strictly later at every site passed, and
// the last pointer names no holding later than the one it reaches.
func fathersInvariant(nodes []alg.Node, inflight []explore.Msg) error {
	n, m := len(nodes), len(nodes[0].(*Node).tok)
	// at[r*n+s] is s's holding of r's token, or where one is heading.
	at, holds := make([]tokVer, n*m), make([]bool, n*m)
	for s, a := range nodes {
		for _, t := range a.(*Node).tok {
			if t != nil {
				at[int(t.R)*n+s], holds[int(t.R)*n+s] = t.version(), true
			}
		}
	}
	for _, x := range inflight {
		if b, ok := x.M.(*respBatch); ok {
			for _, t := range b.Tokens {
				at[int(t.R)*n+int(x.To)], holds[int(t.R)*n+int(x.To)] = t.version(), true
			}
		}
	}
	for r := range m {
		for start := range nodes {
			for s, steps := start, 0; !holds[r*n+s]; steps++ {
				nd := nodes[s].(*Node)
				next, v := int(nd.tokDir[r]), nd.ver[r]
				if next == int(network.None) || steps == n {
					return fmt.Errorf("r%d: the father pointers from s%d end at s%d, which holds no token (or cycle)", r, start, s)
				}
				if holds[r*n+next] {
					if held := at[r*n+next]; v.newer(held) {
						return fmt.Errorf("r%d: s%d names s%d's holding %+v, later than its %+v", r, s, next, v, held)
					}
				} else if w := nodes[next].(*Node).ver[r]; !w.newer(v) {
					return fmt.Errorf("r%d: s%d names s%d at %+v, whose own pointer names %+v, not later", r, s, next, v, w)
				}
				s = next
			}
		}
	}
	return nil
}

func exploreOptions() explore.Options { return explore.Options{Invariant: tokenInvariant} }

// coreShapes are the committed shapes plus one where core lends: one site
// asks for all three resources, a second for two of them, and a third
// for the one left, then for one of the two.
func coreShapes() []explore.Shape {
	set := func(ids ...resource.ID) resource.Set { return resource.FromIDs(3, ids...) }
	return append(explore.Shapes(), explore.Shape{Name: "3x3 loan", N: 3, M: 3,
		Sets: [][]resource.Set{{set(0, 1, 2)}, {set(0, 1)}, {set(2), set(1)}}})
}

// TestExploreCore searches every schedule of small shapes for the
// paper's two configurations, the loan threshold 2 and leases (with the
// clock's ticks as choices), checking safety, hypothesis 4 and the token
// invariant at every state and liveness at every terminal one. Every
// site keeps a relay ring of one entry (withRing), which relayCap gives
// none at these sizes. -short keeps the N = 2 shapes.
func TestExploreCore(t *testing.T) {
	threshold2 := WithLoan()
	threshold2.LoanThreshold = 2
	lease := WithoutLoan()
	lease.LeaseTTL = 3 * explore.TickStep // a heartbeat every tick
	type config struct {
		name   string
		opt    Options
		shapes []explore.Shape
	}
	configs := []config{
		{"counter-no-loan", WithoutLoan(), coreShapes()},
		{"counter-loan", WithLoan(), coreShapes()},
		{"counter-loan/threshold=2", threshold2, coreShapes()},
		{"counter-no-loan/lease", lease, []explore.Shape{
			{Name: "2x1 any/1 ticks=3", N: 2, M: 1, PerSite: 1, Ticks: 3},
			{Name: "2x2 any/1 ticks=2", N: 2, M: 2, PerSite: 1, Ticks: 2},
		}},
	}
	for _, c := range configs {
		for _, sh := range c.shapes {
			if testing.Short() && sh.N > 2 {
				continue
			}
			start := time.Now()
			res := explore.Search(withRing(c.opt, 1), sh, exploreOptions())
			t.Logf("%-26s %-18s %v (%v)", c.name, sh.Name, res, time.Since(start).Round(time.Millisecond))
			if res.Err != nil {
				t.Errorf("%s on %s: %v", c.name, sh.Name, res.Err)
			}
		}
	}
}

// TestExploreWalks walks the shipped configuration where the relay ring
// exists: counter-loan on NewFactory's own nodes, so with the ring
// relayCap gives, at N = 16 (M = 40, φ = 8) and at the paper's N = 32
// (M = 80, φ = 16), three seeds each. Safety and hypothesis 4 are checked
// at every step, the token invariant every ten steps and at the end,
// and liveness once the walk settles. -short keeps one short walk.
func TestExploreWalks(t *testing.T) {
	shapes := []explore.WalkShape{
		{Name: "16x40 phi=8", N: 16, M: 40, Phi: 8},
		{Name: "32x80 phi=16", N: 32, M: 80, Phi: 16},
	}
	seeds, steps := []int64{1, 2, 3}, walkSteps
	if testing.Short() {
		shapes, seeds, steps = shapes[:1], seeds[:1], walkSteps/10
	}
	for _, sh := range shapes {
		for _, seed := range seeds {
			start := time.Now()
			res := explore.Walk(NewFactory(WithLoan()), sh, exploreOptions(), seed, steps)
			t.Logf("counter-loan %-13s seed %d: %v (%v)", sh.Name, seed, res, time.Since(start).Round(time.Millisecond))
			if res.Err != nil {
				t.Errorf("%v (rerun with explore.Replay(NewFactory(WithLoan()), res.Shape, exploreOptions(), res.Err.Vector))",
					res.Err.Cause)
			}
		}
	}
}

// walkSteps is how long each walk of TestExploreWalks runs.
const walkSteps = 80_000
