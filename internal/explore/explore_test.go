package explore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// greedy grants every request at once, asking nobody: unsafe as soon as
// two sites want one resource.
type greedy struct{ env alg.Env }

func (g *greedy) Attach(env alg.Env)                      { g.env = env }
func (g *greedy) Request(resource.Set)                    { g.env.Granted() }
func (g *greedy) Release()                                {}
func (g *greedy) Deliver(network.NodeID, network.Message) {}

// mute never grants: safe, and wedged at every terminal state.
type mute struct{ greedy }

func (m *mute) Request(resource.Set) {}

// ring passes one token around the sites: site 0 starts with it, a site
// wanting it asks its left neighbour, and a holder hands it on to a
// waiting asker once done. Correct, with real message interleavings.
type ring struct {
	env          alg.Env
	has, wants   bool
	inCS, asked  bool
	pendingAsker bool
}

type ask struct{}
type tok struct{}

func (ask) Kind() string { return "ask" }
func (tok) Kind() string { return "tok" }

func (r *ring) Attach(env alg.Env) { r.env, r.has = env, env.ID() == 0 }
func (r *ring) left() network.NodeID {
	return network.NodeID((int(r.env.ID()) + r.env.N() - 1) % r.env.N())
}
func (r *ring) right() network.NodeID { return network.NodeID((int(r.env.ID()) + 1) % r.env.N()) }

func (r *ring) Request(resource.Set) {
	r.wants = true
	r.try()
}

func (r *ring) try() {
	switch {
	case r.wants && r.has:
		r.wants, r.inCS = false, true
		r.env.Granted()
	case r.wants && !r.asked:
		r.asked = true
		r.env.Send(r.left(), ask{})
	}
}

func (r *ring) Release() {
	r.inCS = false
	r.pass()
}

func (r *ring) pass() {
	if r.has && !r.inCS && !r.wants && r.pendingAsker {
		r.has, r.pendingAsker = false, false
		r.env.Send(r.right(), tok{})
	}
}

func (r *ring) Deliver(_ network.NodeID, m network.Message) {
	switch m.(type) {
	case ask:
		if r.has {
			r.pendingAsker = true
			r.pass()
		} else if !r.pendingAsker {
			r.pendingAsker = true
			if !r.asked {
				r.env.Send(r.left(), ask{})
			}
		}
	case tok:
		r.has, r.asked = true, false
		r.try()
		r.pass()
	}
}

func factory[T any, P interface {
	*T
	alg.Node
}]() alg.Factory {
	return func(n, _ int) []alg.Node {
		nodes := make([]alg.Node, n)
		for i := range nodes {
			nodes[i] = P(new(T))
		}
		return nodes
	}
}

func TestExploreFindsSafetyViolationAndReplaysIt(t *testing.T) {
	sh := Shape{Name: "2x1", N: 2, M: 1, PerSite: 1}
	res := Search(factory[greedy](), sh, Options{})
	if res.Err == nil || !strings.Contains(res.Err.Cause, "safety") {
		t.Fatalf("greedy: %v, want a safety violation", res)
	}
	if res.Err.Vector != "r0{0} r1{0}" {
		t.Errorf("schedule %q, want the two requests", res.Err.Vector)
	}
	got := Replay(factory[greedy](), sh, Options{}, res.Err.Vector)
	if got == nil || got.Error() != res.Err.Error() {
		t.Fatalf("replay of %q: %v, want %v", res.Err.Vector, got, res.Err)
	}
}

func TestExploreFindsWedgeAtTerminalState(t *testing.T) {
	res := Search(factory[mute](), Shape{Name: "1x1", N: 1, M: 1, PerSite: 1}, Options{})
	if res.Err == nil || !strings.Contains(res.Err.Cause, "never granted (liveness)") || res.Terminals != 1 {
		t.Fatalf("mute: %v, want a liveness violation at the one terminal state", res)
	}
	if err := Replay(factory[mute](), Shape{Name: "1x1", N: 1, M: 1, PerSite: 1}, Options{}, "r0{0}"); err == nil || err.Error() != res.Err.Error() {
		t.Fatalf("replay: %v, want %v", err, res.Err)
	}
}

func TestExploreDeterministic(t *testing.T) {
	sh := Shape{Name: "3x1", N: 3, M: 1, PerSite: 2}
	a := Search(factory[ring](), sh, Options{})
	b := Search(factory[ring](), sh, Options{})
	if !a.Complete || a.Err != nil || a.States < 100 {
		t.Fatalf("ring: %v, want a clean complete search of a real state space", a)
	}
	if a.String() != b.String() {
		t.Fatalf("two searches of one shape: %v and %v", a, b)
	}
	t.Logf("ring %s: %v", sh.Name, a)
}

// TestExploreInvariantHook: a hook's error stops the search at the first
// state it rejects, with the schedule that reaches it.
func TestExploreInvariantHook(t *testing.T) {
	inv := func(_ []alg.Node, inflight []Msg) error {
		for _, x := range inflight {
			if _, ok := x.M.(tok); ok {
				return errTokenInFlight
			}
		}
		return nil
	}
	res := Search(factory[ring](), Shape{Name: "2x1", N: 2, M: 1, PerSite: 1}, Options{Invariant: inv})
	if res.Err == nil || res.Err.Cause != errTokenInFlight.Error() {
		t.Fatalf("ring with a hook that forbids a token in flight: %v", res)
	}
	if err := Replay(factory[ring](), Shape{Name: "2x1", N: 2, M: 1, PerSite: 1}, Options{Invariant: inv}, res.Err.Vector); err == nil || err.Error() != res.Err.Error() {
		t.Fatalf("replay: %v, want %v", err, res.Err)
	}
}

var errTokenInFlight = errors.New("token in flight")

// TestDrainPanicsOnTimedWorld: a timed World's agenda has booked every
// message's delivery, so a hand-stepped delivery would make a booked
// one take the wrong message.
func TestDrainPanicsOnTimedWorld(t *testing.T) {
	w := NewTimed(factory[ring]()(2, 1), 1, network.NewTiming(2, network.Constant{D: sim.Millisecond}, 0), nil)
	w.Request(1, resource.FromIDs(1, 0)) // site 1 asks site 0 for the token
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "timed World") {
			t.Fatalf("Drain on a timed World: recovered %v, want its panic", p)
		}
	}()
	w.Drain(nil)
}

// TestExploreWalkFindsViolationAndReplaysIt: a walk of greedy nodes
// meets a safety violation, names its seed and step, and its schedule
// replays to the same violation; a walk of ring nodes is clean, settles
// with every request granted, and repeats itself from its seed.
func TestExploreWalkFindsViolationAndReplaysIt(t *testing.T) {
	sh := WalkShape{Name: "3x4", N: 3, M: 4, Phi: 3}
	res := Walk(factory[greedy](), sh, Options{}, 7, 200)
	if res.Err == nil || !strings.Contains(res.Err.Cause, "safety") || !strings.Contains(res.Err.Cause, "seed 7, step ") {
		t.Fatalf("greedy: %v, want a safety violation with its seed and step", res)
	}
	err := Replay(factory[greedy](), res.Shape, Options{}, res.Err.Vector)
	var f *Failure
	if !errors.As(err, &f) || !strings.HasSuffix(res.Err.Cause, ": "+f.Cause) || f.Vector != res.Err.Vector {
		t.Fatalf("replay of the walk's schedule: %v, want %v", err, res.Err)
	}

	sh1 := WalkShape{Name: "4x1", N: 4, M: 1, Phi: 1}
	a := Walk(factory[ring](), sh1, Options{}, 3, 500)
	if a.Err != nil || a.Grants < 50 || a.Steps < 500 {
		t.Fatalf("ring: %v, want a clean walk with its requests granted", a)
	}
	if b := Walk(factory[ring](), sh1, Options{}, 3, 500); b.Steps != a.Steps || b.Grants != a.Grants || b.Msgs != a.Msgs {
		t.Fatalf("two walks of one seed: %v and %v", a, b)
	}
	if c := Walk(factory[mute](), sh1, Options{}, 3, 50); c.Err == nil || !strings.Contains(c.Err.Cause, "liveness") {
		t.Fatalf("mute: %v, want a liveness violation once the walk settles", c)
	}
}
