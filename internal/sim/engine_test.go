package sim

import (
	"container/heap"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestUnitsAndString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2.5µs"},
		{3 * Millisecond, "3.00ms"},
		{1500 * Millisecond, "1.500s"},
		{-3 * Millisecond, "-3.00ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Errorf("FromMillis(2.5) = %v", FromMillis(2.5))
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Errorf("Seconds() = %v", (1500 * Millisecond).Seconds())
	}
	if (3 * Millisecond).Milliseconds() != 3 {
		t.Errorf("Milliseconds() = %v", (3 * Millisecond).Milliseconds())
	}
}

func TestEngineOrdersByTime(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: got[%d] = %d", i, v)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := New()
	var fired []Time
	var step func()
	step = func() {
		fired = append(fired, e.Now())
		if len(fired) < 4 {
			e.After(5, step)
		}
	}
	e.After(5, step)
	e.Run()
	want := []Time{5, 10, 15, 20}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{5, 10, 15, 25} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(15)
	if len(got) != 3 || e.Executed() != 3 {
		t.Fatalf("RunUntil(15) ran %d events (executed %d), want 3", len(got), e.Executed())
	}
	if e.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 100 || len(got) != 4 {
		t.Fatalf("after RunUntil(100): now=%v, %d events ran", e.Now(), len(got))
	}
	if e.Step() {
		t.Fatal("an event was left after RunUntil passed every instant")
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()

	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

// TestEngineHeapProperty drains random agendas and checks the pop order is
// globally sorted by (time, insertion sequence).
func TestEngineHeapProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		e := New()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, raw := range times {
			at, i := Time(raw), i
			e.At(at, func() { got = append(got, stamp{at, i}) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refAgenda is the reference the engine is compared against: the same
// (at, seq) order through container/heap.
type refEvent struct {
	at      Time
	seq, id int
}
type refAgenda []*refEvent

func (h refAgenda) Len() int      { return len(h) }
func (h refAgenda) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refAgenda) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *refAgenda) Push(x any) { *h = append(*h, x.(*refEvent)) }
func (h *refAgenda) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEngineMatchesReferenceHeap drives 10 000 events through a mixed
// At / Step schedule — handlers scheduling follow-ups, many events
// sharing an instant — and checks every executed event, and the clock
// at it, against the container/heap reference.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	const total = 10000
	r := rand.New(rand.NewSource(7))
	e := New()
	var ref refAgenda
	var now Time   // the reference clock
	scheduled := 0 // events scheduled so far; the next one's id
	var ran []int  // ids in the order the engine executed them

	var schedule func(at Time)
	schedule = func(at Time) {
		id := scheduled
		scheduled++
		e.At(at, func() {
			ran = append(ran, id)
			if id%3 == 0 && scheduled < total {
				schedule(e.Now() + Time(id%7))
			}
		})
		heap.Push(&ref, &refEvent{at: at, seq: id, id: id})
	}
	// step runs one event on both sides and compares them.
	step := func() bool {
		var want *refEvent
		if ref.Len() > 0 {
			want = heap.Pop(&ref).(*refEvent)
		}
		before := len(ran)
		if e.Step() != (want != nil) {
			t.Fatalf("Step ran an event: %v, reference has one: %v", want == nil, want != nil)
		}
		if want == nil {
			return false
		}
		now = want.at
		// The handler may have scheduled a follow-up after recording.
		if len(ran) != before+1 || ran[before] != want.id || e.Now() != now {
			t.Fatalf("event %d: engine ran %v at %v, reference %d at %v",
				before, ran[before:], e.Now(), want.id, now)
		}
		return true
	}
	for scheduled < total {
		if r.Intn(10) < 6 {
			schedule(now + Time(r.Intn(50)))
		} else {
			step()
		}
	}
	for step() {
	}
	if len(ran) != total {
		t.Fatalf("%d events ran, %d were scheduled", len(ran), total)
	}
}

// TestEngineScheduleIsAllocationFree: once the agenda's array has
// reached its high-water mark, scheduling and running an event
// allocates nothing — a slot holds the callback inline.
func TestEngineScheduleIsAllocationFree(t *testing.T) {
	e := New()
	var fn func()
	n := 0
	fn = func() {
		if n < 100 {
			n++
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	e.Step()
	allocs := testing.AllocsPerRun(50, func() {
		if !e.Step() {
			t.Fatal("agenda drained early")
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Step allocated %.1f objects/run, want 0", allocs)
	}
}

// TestEngineChurnAllocs is the same budget on a deep agenda: at a
// standing depth of 512, scheduling one event and running one allocates
// nothing once the heap's array has stopped growing.
func TestEngineChurnAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.After(Time(i), fn)
	}
	churn := func() {
		e.After(300, fn)
		if !e.Step() {
			t.Fatal("agenda drained early")
		}
	}
	for i := 0; i < 2000; i++ { // reach the heap's high-water mark
		churn()
	}
	if allocs := testing.AllocsPerRun(500, churn); allocs > 0 {
		t.Fatalf("steady-state churn allocated %.2f objects/run, want 0", allocs)
	}
}

func TestStreamIndependenceAndDeterminism(t *testing.T) {
	a1 := Stream(42, "a")
	a2 := Stream(42, "a")
	b := Stream(42, "b")
	var sameAB, sameA12 int
	for i := 0; i < 100; i++ {
		x, y, z := a1.Int63(), a2.Int63(), b.Int63()
		if x == y {
			sameA12++
		}
		if x == z {
			sameAB++
		}
	}
	if sameA12 != 100 {
		t.Error("identical (seed,label) streams diverged")
	}
	if sameAB > 2 {
		t.Errorf("streams with different labels collided %d/100 times", sameAB)
	}
}

// TestStreamSeedsAtFirstDraw: a stream nobody draws from costs no
// seeding, and one that is drawn from yields what the eagerly seeded
// source of the same seed yields, method by method.
func TestStreamSeedsAtFirstDraw(t *testing.T) {
	lazy := Stream(7, "x")
	h := fnv.New64a()
	h.Write([]byte("x"))
	eager := rand.New(rand.NewSource(7 ^ int64(h.Sum64())))
	if got, want := lazy.Int63(), eager.Int63(); got != want {
		t.Fatalf("first draw %d, eager source gives %d", got, want)
	}
	for i := 0; i < 50; i++ {
		if a, b := lazy.Uint64(), eager.Uint64(); a != b {
			t.Fatalf("Uint64 draw %d: %d, eager %d", i, a, b)
		}
		if a, b := lazy.Float64(), eager.Float64(); a != b {
			t.Fatalf("Float64 draw %d: %v, eager %v", i, a, b)
		}
		if a, b := lazy.Intn(16), eager.Intn(16); a != b {
			t.Fatalf("Intn draw %d: %d, eager %d", i, a, b)
		}
		if a, b := lazy.ExpFloat64(), eager.ExpFloat64(); a != b {
			t.Fatalf("ExpFloat64 draw %d: %v, eager %v", i, a, b)
		}
	}
	lazy.Seed(9)
	if a, b := lazy.Int63(), rand.New(rand.NewSource(9)).Int63(); a != b {
		t.Fatalf("after Seed(9): %d, want %d", a, b)
	}

	const streams = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < streams; i++ {
		Stream(int64(i), "never drawn")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / streams; per > 512 {
		t.Errorf("an undrawn stream allocates %d bytes: seeded before its first draw", per)
	}
}

func TestExp(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if Exp(r, 0) != 0 || Exp(r, -5) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
	const mean = 10 * Millisecond
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		v := Exp(r, mean)
		if v < 0 {
			t.Fatal("negative sample")
		}
		sum += v
	}
	got := float64(sum) / n / float64(mean)
	if got < 0.95 || got > 1.05 {
		t.Fatalf("sample mean/true mean = %.3f, want ≈1", got)
	}
}
