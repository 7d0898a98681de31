package serve

import (
	"math/rand"
	"testing"

	"mralloc/internal/sim"
)

func popAll(s *Scheduler, now sim.Time) []uint64 {
	var out []uint64
	for it := s.Pop(now); it != nil; it = s.Pop(now) {
		out = append(out, it.Session)
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"", "fifo", "ssf", "edf"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Errorf("ParsePolicy(%q): %v", s, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	if p, _ := ParsePolicy(""); p != FIFO {
		t.Errorf("empty policy parsed as %q, want fifo", p)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := NewScheduler(FIFO, 0)
	for i := 0; i < 5; i++ {
		s.Push(&Item{Session: uint64(i), Size: 5 - i}, sim.Time(i))
	}
	got := popAll(s, 10)
	for i, sess := range got {
		if sess != uint64(i) {
			t.Fatalf("fifo pop order %v", got)
		}
	}
}

func TestSSFOrder(t *testing.T) {
	s := NewScheduler(SSF, 0)
	sizes := []int{4, 1, 3, 1, 2}
	for i, sz := range sizes {
		s.Push(&Item{Session: uint64(i), Size: sz}, 0)
	}
	// Ascending size, arrival order within equal sizes: 1,3 (size 1),
	// 4 (2), 2 (3), 0 (4).
	want := []uint64{1, 3, 4, 2, 0}
	got := popAll(s, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ssf pop order %v, want %v", got, want)
		}
	}
}

func TestEDFOrder(t *testing.T) {
	s := NewScheduler(EDF, 0)
	deadlines := []sim.Time{30, 10, 0, 20, 0}
	for i, d := range deadlines {
		s.Push(&Item{Session: uint64(i), Deadline: d}, 0)
	}
	// Nearest deadline first; no-deadline items last in arrival order.
	want := []uint64{1, 3, 0, 2, 4}
	got := popAll(s, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edf pop order %v, want %v", got, want)
		}
	}
}

// TestAgingPromotesOldest: once an item has waited past the aging
// threshold it must be admitted ahead of anything the policy prefers.
func TestAgingPromotesOldest(t *testing.T) {
	s := NewScheduler(SSF, 100)
	s.Push(&Item{Session: 0, Size: 9}, 0) // big — SSF would starve it
	s.Push(&Item{Session: 1, Size: 1}, 1)
	s.Push(&Item{Session: 2, Size: 1}, 2)
	// Before the threshold SSF wins.
	if it := s.Pop(50); it.Session != 1 {
		t.Fatalf("pop before aging = session %d, want 1", it.Session)
	}
	// At now=100 the big item is 100 old → promoted over session 2.
	if it := s.Pop(100); it.Session != 0 {
		t.Fatalf("pop after aging = session %d, want 0 (aged)", it.Session)
	}
	if it := s.Pop(100); it.Session != 2 {
		t.Fatalf("last pop = session %d, want 2", it.Session)
	}
}

func TestRemoveCancelsQueued(t *testing.T) {
	s := NewScheduler(FIFO, 0)
	a := &Item{Session: 0}
	b := &Item{Session: 1}
	s.Push(a, 0)
	s.Push(b, 0)
	if !s.Remove(a) {
		t.Fatal("Remove of a queued item reported false")
	}
	if s.Remove(a) {
		t.Fatal("second Remove reported true")
	}
	if it := s.Pop(0); it != b {
		t.Fatalf("pop after remove = %+v, want session 1", it)
	}
	if s.Remove(b) {
		t.Fatal("Remove of a popped item reported true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after draining", s.Len())
	}
}

// TestNoStarvationUnderAdversarialStream: keep feeding small requests
// that SSF prefers; a big early request must still be admitted within
// a bounded number of pops thanks to aging.
func TestNoStarvationUnderAdversarialStream(t *testing.T) {
	const aging = 50
	s := NewScheduler(SSF, aging)
	big := &Item{Session: 999, Size: 100}
	s.Push(big, 0)
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		now++
		s.Push(&Item{Session: uint64(i), Size: 1}, now)
		it := s.Pop(now)
		if it == big {
			if now < aging {
				t.Fatalf("big admitted before aging threshold at %v", now)
			}
			return
		}
	}
	t.Fatal("big request starved through 1000 admissions")
}

// TestRandomizedInvariants: under random pushes/pops/removes across
// all policies, every pushed item is popped exactly once or removed
// exactly once, and nothing is lost.
func TestRandomizedInvariants(t *testing.T) {
	for _, p := range Policies() {
		rng := rand.New(rand.NewSource(7))
		s := NewScheduler(p, 20)
		live := map[*Item]bool{}
		popped, removed, pushed := 0, 0, 0
		now := sim.Time(0)
		for step := 0; step < 5000; step++ {
			now++
			switch r := rng.Intn(10); {
			case r < 5:
				it := &Item{Session: uint64(step), Size: 1 + rng.Intn(8), Deadline: sim.Time(rng.Intn(1000))}
				s.Push(it, now)
				live[it] = true
				pushed++
			case r < 8:
				if it := s.Pop(now); it != nil {
					if !live[it] {
						t.Fatalf("%s: popped an item not live", p)
					}
					delete(live, it)
					popped++
				}
			default:
				for it := range live {
					if s.Remove(it) {
						delete(live, it)
						removed++
					}
					break
				}
			}
			if s.Len() != len(live) {
				t.Fatalf("%s: Len=%d, live=%d", p, s.Len(), len(live))
			}
		}
		for it := s.Pop(now + 1e9); it != nil; it = s.Pop(now + 1e9) {
			if !live[it] {
				t.Fatalf("%s: drain popped a dead item", p)
			}
			delete(live, it)
			popped++
		}
		if len(live) != 0 {
			t.Fatalf("%s: %d items lost", p, len(live))
		}
		if popped+removed != pushed {
			t.Fatalf("%s: pushed %d, popped %d + removed %d", p, pushed, popped, removed)
		}
	}
}

// TestReusedItemCannotReviveQueuePosition is the regression test for
// the re-push aliasing bug: a live session reuses its ticket's Item,
// so a popped item is pushed again with fresh fields. The
// recycled push must not revive the item's stale arrival-order entry
// — which would both break aging (the "oldest" slot pinned by the
// newest push) and grow the fifo without bound.
func TestReusedItemCannotReviveQueuePosition(t *testing.T) {
	const aging = 100
	s := NewScheduler(SSF, aging)
	big := &Item{Session: 99, Size: 9}
	s.Push(big, 0)
	churn := &Item{Session: 1, Size: 1}
	now := sim.Time(0)
	// Session 1 cycles small requests, reusing the same Item, as a
	// live ticket does. SSF prefers them; aging must still
	// promote the big request once it has waited the threshold.
	for i := 0; i < 500; i++ {
		now += 10
		s.Push(churn, now)
		it := s.Pop(now)
		if it == big {
			if now < aging {
				t.Fatalf("big admitted before the aging threshold at %v", now)
			}
			return
		}
		if it != churn {
			t.Fatalf("pop returned neither item: %+v", it)
		}
	}
	t.Fatal("big request starved by a reused small item (stale fifo entry revived)")
}

// TestSteadyStateQueueAllocs: a queue that is not deeper than it has
// been before allocates nothing per push/pop — at depth 1 (the
// uncontended node: every request finds the queue empty), where the
// arrival-order buffer used to be resliced down to zero capacity and
// regrown on every push, and at depth 64.
func TestSteadyStateQueueAllocs(t *testing.T) {
	for _, p := range Policies() {
		for _, depth := range []int{1, 64} {
			s := NewScheduler(p, 0)
			now := sim.Time(0)
			items := make([]Item, depth)
			for i := range items {
				items[i] = Item{Session: uint64(i), Size: 1 + i%4, Deadline: sim.Time(i + 1)}
				s.Push(&items[i], now)
			}
			spare := s.Pop(now)
			cycle := func() {
				now++
				s.Push(spare, now)
				spare = s.Pop(now)
			}
			for i := 0; i < 4*depth; i++ { // let the buffers reach their steady size
				cycle()
			}
			if got := testing.AllocsPerRun(1000, cycle); got != 0 {
				t.Errorf("%s, depth %d: %v allocs per push/pop, want 0", p, depth, got)
			}
			if s.Len() != depth-1 {
				t.Fatalf("%s, depth %d: %d items queued after the cycles", p, depth, s.Len())
			}
		}
	}
}
