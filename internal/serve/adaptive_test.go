package serve

import (
	"testing"

	"mralloc/internal/sim"
)

// hugeAging disables aging promotion so ordering tests see only the
// policy's preference.
const hugeAging = sim.Time(1) << 60

func TestAdaptiveOrdersEDFWhenCalm(t *testing.T) {
	s := NewScheduler(Adaptive, hugeAging)
	a := &Item{Session: 1, Size: 1, Deadline: 300 * sim.Millisecond}
	b := &Item{Session: 2, Size: 9, Deadline: 100 * sim.Millisecond}
	c := &Item{Session: 3, Size: 5} // no deadline sorts last
	for _, it := range []*Item{a, c, b} {
		s.Push(it, 0)
	}
	want := []*Item{b, a, c}
	for i, w := range want {
		if got := s.Pop(0); got != w {
			t.Fatalf("calm pop %d = session %d, want %d", i, got.Session, w.Session)
		}
	}
	if s.Load().Pressure {
		t.Fatal("zero-wait pops entered pressure mode")
	}
}

func TestAdaptiveSwitchesToSSFUnderPressure(t *testing.T) {
	s := NewScheduler(Adaptive, hugeAging)
	target := 10 * sim.Millisecond
	s.SetTarget(target)
	if got := s.ad.target; got != target {
		t.Fatalf("target = %v, want %v", got, target)
	}

	// One pop whose wait dwarfs the target seeds the grant-latency
	// EWMA above the pressure threshold.
	first := &Item{Session: 1, Size: 1}
	s.Push(first, 0)
	if s.Pop(100*target) != first {
		t.Fatal("lost the seeding item")
	}
	if !s.Load().Pressure {
		t.Fatal("grant latency 100× target did not enter pressure mode")
	}

	// Pressure orders shortest-set-first, deadlines ignored.
	small := &Item{Session: 2, Size: 1}
	wide := &Item{Session: 3, Size: 8, Deadline: 1} // earliest deadline, widest set
	now := 100 * target
	s.Push(wide, now)
	s.Push(small, now)
	if got := s.Pop(now); got != small {
		t.Fatalf("pressure pop = session %d, want the small request", got.Session)
	}
	if got := s.Pop(now); got != wide {
		t.Fatalf("second pressure pop = session %d, want the wide request", got.Session)
	}

	// Zero-wait pops decay the EWMA below target/8; with no sheds the
	// node calms down and goes back to deadline ordering.
	for i := 0; i < 200 && s.Load().Pressure; i++ {
		it := &Item{Session: 9, Size: 1}
		s.Push(it, now)
		s.Pop(now)
	}
	if s.Load().Pressure {
		t.Fatal("node never calmed down after 200 zero-wait pops")
	}
	d1 := &Item{Session: 4, Size: 9, Deadline: now + 1}
	d2 := &Item{Session: 5, Size: 1, Deadline: now + 2}
	s.Push(d2, now)
	s.Push(d1, now)
	if got := s.Pop(now); got != d1 {
		t.Fatalf("calm pop = session %d, want the earliest deadline", got.Session)
	}
	s.Pop(now)
}

func TestAdaptiveBoundFromLittlesLaw(t *testing.T) {
	s := NewScheduler(Adaptive, hugeAging)
	s.SetTarget(100 * sim.Millisecond)

	// No service observations yet: unbounded, never sheds.
	if s.Overloaded(1) {
		t.Fatal("shed before any service observation")
	}
	// 10ms occupancy against a 100ms target → bound 10 (first sample
	// seeds the EWMA directly).
	s.ObserveService(10 * sim.Millisecond)
	if got := s.Load().Bound; got != 10 {
		t.Fatalf("bound = %d, want 10", got)
	}
	var items []*Item
	for i := 0; i < 9; i++ {
		it := &Item{Session: uint64(i), Size: 1}
		s.Push(it, 0)
		items = append(items, it)
	}
	if s.Overloaded(1) {
		t.Fatalf("shed below the bound (depth %d)", s.Load().Depth)
	}
	it := &Item{Session: 99, Size: 1}
	s.Push(it, 0)
	items = append(items, it)
	if !s.Overloaded(1) {
		t.Fatalf("no shed at the bound (depth %d, bound %d)", s.Load().Depth, s.Load().Bound)
	}
	// Removing below the bound opens admission again.
	s.Remove(items[0])
	if s.Overloaded(1) {
		t.Fatal("shed after queue dropped below the bound")
	}

	// The bound is clamped: microscopic occupancy cannot open the
	// floodgates past maxAdmitBound, and a huge occupancy cannot close
	// the node entirely.
	s2 := NewScheduler(Adaptive, hugeAging)
	s2.SetTarget(100 * sim.Millisecond)
	s2.ObserveService(0)
	if got := s2.Load().Bound; got != 0 {
		t.Fatalf("zero occupancy bound = %d, want unbounded", got)
	}
	for i := 0; i < 100; i++ {
		s2.ObserveService(600 * sim.Second)
	}
	if got := s2.Load().Bound; got != minAdmitBound {
		t.Fatalf("huge occupancy bound = %d, want the %d floor", got, minAdmitBound)
	}
}

func TestAdaptiveWideShedsAtHalfBoundUnderPressure(t *testing.T) {
	s := NewScheduler(Adaptive, hugeAging)
	target := 10 * sim.Millisecond
	s.SetTarget(target)
	s.ObserveService(sim.Millisecond) // bound = 10

	// Seed mean size ≈ 1 and enter pressure in one pop.
	seed := &Item{Session: 1, Size: 1}
	s.Push(seed, 0)
	s.Pop(100 * target)
	if !s.Load().Pressure {
		t.Fatal("not pressured")
	}
	for i := 0; i < 5; i++ {
		s.Push(&Item{Session: uint64(i), Size: 1}, 0)
	}
	// Depth 5 = bound/2: wide requests (≥ 2× mean size) shed, narrow
	// ones are still admitted.
	if s.Overloaded(1) {
		t.Fatal("narrow request shed below the bound")
	}
	if !s.Overloaded(4) {
		t.Fatalf("wide request admitted under pressure at depth %d (bound %d, mean %.1f)",
			s.Load().Depth, s.Load().Bound, s.Load().MeanSize)
	}
}

// TestAdaptiveNoStarvationWhileShedding is the pinned overload test:
// while the self-tuned bound is shedding new arrivals and pressure
// mode prefers small requests, an admitted wide request must still be
// aging-promoted within the threshold — shedding bounds the queue, it
// must never un-admit or starve what was already accepted.
func TestAdaptiveNoStarvationWhileShedding(t *testing.T) {
	aging := 50 * sim.Millisecond
	s := NewScheduler(Adaptive, aging)
	s.SetTarget(5 * sim.Millisecond)
	s.ObserveService(sim.Millisecond) // bound = 5

	// Seed pressure mode so ordering prefers small requests before the
	// wide one arrives.
	seed := &Item{Session: 1, Size: 1}
	s.Push(seed, 0)
	start := 20 * sim.Millisecond
	if s.Pop(start) != seed || !s.Load().Pressure {
		t.Fatal("failed to seed pressure mode")
	}

	wide := &Item{Session: 1000, Size: 16}
	s.Push(wide, start)

	// A sustained overload: two small arrivals per 1ms step against one
	// admission, so the queue hits the bound and the node sheds most
	// arrivals (NoteShed feeding the denial EWMA) while pressure mode
	// prefers every small survivor over the wide request — until aging
	// promotes it.
	var widePoppedAt sim.Time = -1
	var sheds int
	step := sim.Millisecond
loop:
	for i := 1; i <= 200; i++ {
		now := start + sim.Time(i)*step
		for j := 0; j < 2; j++ {
			if s.Overloaded(1) {
				s.NoteShed()
				sheds++
			} else {
				s.Push(&Item{Session: uint64(10*i + j), Size: 1}, now)
			}
		}
		if it := s.Pop(now); it == wide {
			widePoppedAt = now - start
			break loop
		}
	}
	if widePoppedAt < 0 {
		t.Fatal("wide request never admitted: starved by the shedding node")
	}
	if widePoppedAt > aging+step {
		t.Fatalf("wide request admitted after %v, past the aging threshold %v", widePoppedAt, aging)
	}
	if widePoppedAt < aging {
		t.Fatalf("wide request admitted after %v, before the aging threshold %v — the stream never pressured it", widePoppedAt, aging)
	}
	if sheds == 0 || s.Load().ShedRate == 0 {
		t.Fatalf("test shed %d arrivals (EWMA %.3f) — not an overload scenario", sheds, s.Load().ShedRate)
	}
}

func TestFixedPoliciesIgnoreAdaptiveSurface(t *testing.T) {
	s := NewScheduler(SSF, 0)
	s.SetTarget(sim.Second)
	s.ObserveService(3600 * sim.Second)
	s.NoteShed()
	if s.Overloaded(1) {
		t.Fatal("fixed policy shed")
	}
	if got := (Load{}); s.Load() != got {
		t.Fatalf("fixed policy Load = %+v, want zero", s.Load())
	}
	if s.ad != nil {
		t.Fatal("fixed policy has adaptive state")
	}
}
