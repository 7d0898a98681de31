package explore

import (
	"fmt"
	"strings"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

// WalkShape is an instance too large to search: N sites over M
// resources, each request a set workload.Generator draws for its site
// at φ = Phi.
type WalkShape struct {
	Name      string
	N, M, Phi int
}

// walkStride is how many steps a walk takes between two checks of
// Options.Invariant (it also checks at its end): a full check of a large
// instance can cost far more than the step it follows.
const walkStride = 10

// WalkResult is what a walk did: the steps it took (settling included),
// the grants and messages they made, and the first violation, whose
// Vector is the walk's schedule. Shape is the Shape that schedule
// replays on, its Sets the sets each site requested, in order:
// Replay(f, res.Shape, opt, res.Err.Vector) reruns the walk.
type WalkResult struct {
	Steps, Grants int
	Msgs          int64
	Shape         Shape
	Err           *Failure
}

func (r WalkResult) String() string {
	s := fmt.Sprintf("%d steps, %d grants, msgs/grant %.2f", r.Steps, r.Grants, float64(r.Msgs)/float64(max(r.Grants, 1)))
	if r.Err != nil {
		s += ": " + r.Err.Cause // the schedule is too long to print
	}
	return s
}

// Walk takes steps seeded random steps of sh, then settles: it delivers
// and releases, asking for nothing more, until nothing is in flight and
// every site is idle, and checks that every request was granted. Each
// step picks uniformly among the kinds of choice the state offers —
// deliver a link's oldest message, have an idle site request its next
// set, have a site in its critical section release — and uniformly
// within the kind. The Monitor checks safety and hypothesis 4 at every
// step. The walk is a function of its seed: a failure names the seed
// and the step, and Replay reruns its schedule with every check at
// every step. The asynchrony is arbitrary interleaving, not a latency
// model: any link's oldest message may go next, however long ago it
// was sent.
func Walk(f alg.Factory, sh WalkShape, opt Options, seed int64, steps int) WalkResult {
	w := New(f, sh.N, sh.M)
	rng := sim.Stream(seed, "explore/walk")
	gens := make([]*workload.Generator, sh.N)
	for i := range gens {
		gens[i] = workload.NewGenerator(workload.Config{N: sh.N, M: sh.M, Phi: sh.Phi, Seed: seed}, i)
	}
	res := WalkResult{Shape: Shape{Name: sh.Name, N: sh.N, M: sh.M, Sets: make([][]resource.Set, sh.N)}}
	var (
		path                 []string
		links, idle, holders []int // this step's choices: non-empty links (a*N+b), sites
		kinds                []walkKind
	)
	check := func() error {
		if opt.Invariant == nil {
			return nil
		}
		return opt.Invariant(w.nodes, w.InFlight())
	}
	// A protocol still busy this long after the last request has a
	// livelock.
	limit := steps + 100*sh.N*sh.M
	for ; ; res.Steps++ {
		asking := res.Steps < steps
		links, idle, holders, kinds = links[:0], idle[:0], holders[:0], kinds[:0]
		for l, q := range w.links {
			if q.head >= 0 {
				links = append(links, l)
			}
		}
		for s := range sh.N {
			if w.inCS[s] {
				holders = append(holders, s)
			} else if asking && !w.pending[s] {
				idle = append(idle, s)
			}
		}
		for k, n := range [...]int{walkDeliver: len(links), walkRequest: len(idle), walkRelease: len(holders)} {
			if n > 0 {
				kinds = append(kinds, walkKind(k))
			}
		}
		if len(kinds) == 0 {
			break
		}
		err := guard(func() error {
			switch kinds[rng.Intn(len(kinds))] {
			case walkDeliver:
				l := links[rng.Intn(len(links))]
				a, b := network.NodeID(l/sh.N), network.NodeID(l%sh.N)
				path = append(path, deliverStep(a, b))
				w.deliver(a, b)
			case walkRequest:
				s := idle[rng.Intn(len(idle))]
				set := gens[s].Next().Resources
				path = append(path, requestStep(s, set))
				res.Shape.Sets[s] = append(res.Shape.Sets[s], set)
				w.Request(s, set)
			case walkRelease:
				s := holders[rng.Intn(len(holders))]
				path = append(path, releaseStep(s))
				w.Release(s)
			}
			if (res.Steps+1)%walkStride != 0 {
				return nil
			}
			return check()
		})
		if err == nil && res.Steps == limit {
			err = fmt.Errorf("still busy %d steps after the last request (livelock)", limit-steps)
		}
		if err != nil {
			return walkFailed(w, res, sh, seed, path, err)
		}
	}
	if err := guard(func() error {
		if err := check(); err != nil {
			return err
		}
		w.mon.CheckQuiescent(w.Now())
		return nil
	}); err != nil {
		return walkFailed(w, res, sh, seed, path, err)
	}
	res.Grants, res.Msgs = w.mon.Grants(), w.total
	return res
}

type walkKind int

const (
	walkDeliver walkKind = iota
	walkRequest
	walkRelease
)

// walkFailed completes res with the violation err, met at res.Steps.
func walkFailed(w *World, res WalkResult, sh WalkShape, seed int64, path []string, err error) WalkResult {
	res.Steps, res.Grants, res.Msgs = len(path), w.mon.Grants(), w.total
	res.Err = &Failure{strings.Join(path, " "), fmt.Sprintf("walk %s seed %d, step %d: %v", sh.Name, seed, len(path), err)}
	return res
}
