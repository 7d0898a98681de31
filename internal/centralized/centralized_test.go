package centralized

import (
	"testing"

	"mralloc/internal/explore"
	"mralloc/internal/resource"
)

// build runs n nodes over m resources on an explore.World, which hands
// every node the real shape and checks every grant against a safety
// monitor. Nothing here drains the World, so a message any node sent is
// still in flight when the test ends: the scheduler must send none.
func build(t *testing.T, n, m int) (*explore.World, *Scheduler) {
	w := explore.New(NewFactory(), n, m)
	t.Cleanup(func() {
		if sent := w.InFlight(); len(sent) != 0 {
			t.Errorf("centralized sent %d messages, want none: %v", len(sent), sent)
		}
	})
	return w, w.Node(0).(*Node).sched
}

// inCS lists the sites inside their critical section.
func inCS(w *explore.World, n int) []int {
	var in []int
	for s := 0; s < n; s++ {
		if w.InCS(s) {
			in = append(in, s)
		}
	}
	return in
}

func TestImmediateGrantWhenFree(t *testing.T) {
	w, sched := build(t, 2, 8)
	w.Request(0, resource.FromIDs(8, 1, 2))
	if got := inCS(w, 2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("in CS: %v", got)
	}
	if sched.QueueLen() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestConflictingWaitsUntilRelease(t *testing.T) {
	w, sched := build(t, 2, 8)
	w.Request(0, resource.FromIDs(8, 1, 2))
	w.Request(1, resource.FromIDs(8, 2, 3))
	if w.InCS(1) {
		t.Fatalf("conflicting request granted early: in CS %v", inCS(w, 2))
	}
	if sched.QueueLen() != 1 {
		t.Fatalf("queue len = %d", sched.QueueLen())
	}
	w.Release(0)
	if got := inCS(w, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("in CS after release: %v", got)
	}
}

func TestNonConflictingOvertakes(t *testing.T) {
	w, _ := build(t, 3, 8)
	w.Request(0, resource.FromIDs(8, 1))
	w.Request(1, resource.FromIDs(8, 1)) // blocked behind node 0
	w.Request(2, resource.FromIDs(8, 5)) // disjoint: must overtake
	if got := inCS(w, 3); len(got) != 2 || got[1] != 2 {
		t.Fatalf("in CS: %v, want node 2 overtaking", got)
	}
}

func TestFIFOAmongConflicting(t *testing.T) {
	w, _ := build(t, 3, 8)
	for s := 0; s < 3; s++ {
		w.Request(s, resource.FromIDs(8, 1))
	}
	for s := 0; s < 3; s++ {
		if got := inCS(w, 3); len(got) != 1 || got[0] != s {
			t.Fatalf("in CS: %v, want site %d next in arrival order", got, s)
		}
		w.Release(s)
	}
}

func TestReleaseCascade(t *testing.T) {
	w, _ := build(t, 4, 8)
	w.Request(0, resource.FromIDs(8, 1, 2, 3))
	w.Request(1, resource.FromIDs(8, 1))
	w.Request(2, resource.FromIDs(8, 2))
	w.Request(3, resource.FromIDs(8, 3))
	if got := inCS(w, 4); len(got) != 1 {
		t.Fatalf("in CS: %v", got)
	}
	w.Release(0) // all three waiters become admissible at once
	if got := inCS(w, 4); len(got) != 3 {
		t.Fatalf("in CS after cascade: %v", got)
	}
}

func TestReleaseWithoutGrantPanics(t *testing.T) {
	w, _ := build(t, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Node(0).Release()
}

func TestUnexpectedMessagePanics(t *testing.T) {
	w, _ := build(t, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Node(0).Deliver(0, nil)
}
