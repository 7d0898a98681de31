package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mralloc/internal/sim"
)

func TestAccumAgainstDirectFormulas(t *testing.T) {
	samples := []float64{4, 7, 13, 16}
	var a Accum
	for _, x := range samples {
		a.Add(x)
	}
	s := a.Summary()
	if s.Count != 4 || s.Mean != 10 || s.Min != 4 || s.Max != 16 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of {4,7,13,16} is sqrt(30).
	if math.Abs(s.StdDev-math.Sqrt(30)) > 1e-9 {
		t.Fatalf("stddev = %v, want sqrt(30)", s.StdDev)
	}
}

func TestAccumSingleAndEmpty(t *testing.T) {
	var a Accum
	if s := a.Summary(); s.Count != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	a.Add(5)
	if s := a.Summary(); s.StdDev != 0 || s.Mean != 5 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

// Property: Welford matches the naive two-pass computation.
func TestAccumMatchesTwoPass(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var a Accum
		var sum float64
		for _, v := range raw {
			a.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		want := math.Sqrt(ss / float64(len(raw)-1))
		s := a.Summary()
		return math.Abs(s.Mean-mean) < 1e-6 && math.Abs(s.StdDev-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUseRateSimple(t *testing.T) {
	u := NewUseRate(2, 0, 100)
	u.Acquire(0, 10)
	u.Release(0, 60) // 50 busy on r0
	u.Acquire(1, 0)
	u.Release(1, 100) // 100 busy on r1
	if got := u.Rate(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("rate = %v, want 0.75", got)
	}
	// Each resource alone, on a one-resource tracker.
	r0 := NewUseRate(1, 0, 100)
	r0.Acquire(0, 10)
	r0.Release(0, 60)
	r1 := NewUseRate(1, 0, 100)
	r1.Acquire(0, 0)
	r1.Release(0, 100)
	if r0.Rate() != 0.5 || r1.Rate() != 1.0 {
		t.Fatalf("one-resource rates = %v, %v, want 0.5, 1", r0.Rate(), r1.Rate())
	}
}

func TestUseRateWindowClipping(t *testing.T) {
	u := NewUseRate(1, 100, 200)
	u.Acquire(0, 50)
	u.Release(0, 150) // only [100,150) counts
	u.Acquire(0, 180)
	u.Release(0, 300) // only [180,200) counts
	u.Acquire(0, 250)
	u.Release(0, 260) // fully outside, counts nothing
	if got := u.Rate(); math.Abs(got-0.70) > 1e-12 {
		t.Fatalf("rate = %v, want 0.70", got)
	}
}

func TestUseRateOpenIntervalAtHorizon(t *testing.T) {
	u := NewUseRate(1, 0, 100)
	u.Acquire(0, 90) // never released
	if got := u.Rate(); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("rate = %v, want 0.10", got)
	}
	// Held from before the warmup to past the horizon: both ends clip.
	w := NewUseRate(1, 20, 100)
	w.Acquire(0, 5)
	if got := w.Rate(); got != 1 {
		t.Fatalf("rate of a hold across the whole window = %v, want 1", got)
	}
}

func TestUseRateMisusePanics(t *testing.T) {
	u := NewUseRate(1, 0, 10)
	u.Acquire(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double acquire did not panic")
			}
		}()
		u.Acquire(0, 2)
	}()
	u.Release(0, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release while free did not panic")
			}
		}()
		u.Release(0, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty window did not panic")
			}
		}()
		NewUseRate(1, 5, 5)
	}()
}

// Property: the aggregate rate equals the mean of the rates one-resource
// trackers measure for each resource alone, and none leaves [0, 1] under
// random non-overlapping busy intervals straddling warmup and horizon.
func TestUseRateProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const m, warmup, horizon = 4, 100, 1000
		u := NewUseRate(m, warmup, horizon)
		var mean float64
		for res := 0; res < m; res++ {
			one := NewUseRate(1, warmup, horizon)
			t := sim.Time(r.Intn(200))
			for t < horizon {
				hold := sim.Time(1 + r.Intn(100))
				u.Acquire(res, t)
				u.Release(res, t+hold)
				one.Acquire(0, t)
				one.Release(0, t+hold)
				t += hold + sim.Time(1+r.Intn(100))
			}
			p := one.Rate()
			if p < 0 || p > 1 {
				return false
			}
			mean += p
		}
		mean /= m
		rate := u.Rate()
		return rate >= 0 && rate <= 1 && math.Abs(mean-rate) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitingBuckets(t *testing.T) {
	w := NewWaiting([]int{1, 17, 33, 49, 65, 80})
	w.Observe(1, 10*sim.Millisecond)
	w.Observe(16, 20*sim.Millisecond)  // still bucket 0 (edges are lower bounds)
	w.Observe(17, 30*sim.Millisecond)  // bucket 1
	w.Observe(80, 100*sim.Millisecond) // bucket 5
	if got := w.Bucket(0); got.Count != 2 || got.Mean != 15 {
		t.Fatalf("bucket 0 = %+v", got)
	}
	if got := w.Bucket(1); got.Count != 1 || got.Mean != 30 {
		t.Fatalf("bucket 1 = %+v", got)
	}
	if got := w.Bucket(5); got.Count != 1 || got.Mean != 100 {
		t.Fatalf("bucket 5 = %+v", got)
	}
	if got := w.Overall(); got.Count != 4 || got.Mean != 40 {
		t.Fatalf("overall = %+v", got)
	}
	if len(w.Edges()) != 6 {
		t.Fatal("edges accessor wrong")
	}
}

func TestWaitingDefaultBucket(t *testing.T) {
	w := NewWaiting(nil)
	w.Observe(5, 2*sim.Millisecond)
	if got := w.Bucket(0); got.Count != 1 || got.Mean != 2 {
		t.Fatalf("default bucket = %+v", got)
	}
}

func TestJainIndex(t *testing.T) {
	if Jain(nil) != 1 || Jain([]float64{0, 0}) != 1 {
		t.Fatal("degenerate Jain should be 1")
	}
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single winner of 4: %v, want 0.25", got)
	}
	// Scale invariance.
	a := Jain([]float64{1, 2, 3})
	b := Jain([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("Jain not scale invariant")
	}
}

func TestJainProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		j := Jain(xs)
		n := float64(len(xs))
		if len(xs) == 0 {
			return j == 1
		}
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// exactQuantile is the order statistic the P² estimator approximates.
func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// TestQuantilesExactWhenSmall: below six samples the estimator must
// return exact order statistics.
func TestQuantilesExactWhenSmall(t *testing.T) {
	var a Accum
	for _, x := range []float64{30, 10, 50, 20, 40} {
		a.Add(x)
	}
	s := a.Summary()
	if s.P50 != 30 {
		t.Errorf("p50 of 5 samples = %v, want 30", s.P50)
	}
	if s.P99 != 50 {
		t.Errorf("p99 of 5 samples = %v, want 50", s.P99)
	}
}

// TestQuantilesStreaming: P² estimates on 20k samples from several
// shapes must land near the exact quantiles. Tolerances are loose —
// P² is an approximation — but tight enough to catch a broken marker
// update (which typically lands orders of magnitude off).
func TestQuantilesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := map[string]func() float64{
		"uniform": func() float64 { return rng.Float64() * 100 },
		"exp":     func() float64 { return rng.ExpFloat64() * 10 },
		"normal":  func() float64 { return 50 + 12*rng.NormFloat64() },
	}
	for name, draw := range shapes {
		var a Accum
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = draw()
			a.Add(xs[i])
		}
		s := a.Summary()
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
			want := exactQuantile(xs, q.p)
			// Tolerance: 5% of the sample range plus a small absolute slack.
			tol := 0.05*(s.Max-s.Min) + 1e-6
			if math.Abs(q.got-want) > tol {
				t.Errorf("%s: p%d = %v, exact %v (tol %v)", name, int(q.p*100), q.got, want, tol)
			}
		}
		if s.P50 > s.P95 || s.P95 > s.P99 {
			t.Errorf("%s: quantiles not monotone: p50=%v p95=%v p99=%v", name, s.P50, s.P95, s.P99)
		}
	}
}

// TestQuantilesSorted: on already-sorted input (the adversarial case
// for naive samplers) the estimator must still track the tail.
func TestQuantilesSorted(t *testing.T) {
	var a Accum
	n := 10000
	for i := 0; i < n; i++ {
		a.Add(float64(i))
	}
	s := a.Summary()
	if math.Abs(s.P50-float64(n)/2) > 0.05*float64(n) {
		t.Errorf("p50 = %v, want ≈%v", s.P50, n/2)
	}
	if math.Abs(s.P99-0.99*float64(n)) > 0.05*float64(n) {
		t.Errorf("p99 = %v, want ≈%v", s.P99, int(0.99*float64(n)))
	}
}

func TestSnapshotWindows(t *testing.T) {
	var a Accum
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	w1 := a.Snapshot()
	if w1.Count != 3 || w1.Mean != 2 || w1.Min != 1 || w1.Max != 3 {
		t.Fatalf("first window = %+v", w1)
	}
	// The second window must see only its own samples: counts, extrema
	// AND quantile markers all restart.
	for _, x := range []float64{100, 100, 100, 100} {
		a.Add(x)
	}
	w2 := a.Snapshot()
	if w2.Count != 4 || w2.Mean != 100 || w2.Min != 100 || w2.P99 != 100 {
		t.Fatalf("second window leaked the first: %+v", w2)
	}
	if empty := a.Snapshot(); empty.Count != 0 {
		t.Fatalf("post-snapshot accumulator not empty: %+v", empty)
	}
}

func TestSnapshotResetsQuantileMarkers(t *testing.T) {
	// Saturate the P² markers with large samples, snapshot, then feed a
	// small-valued window: if the markers survived the reset, the new
	// window's quantiles would be dragged far above its true range.
	var a Accum
	for i := 0; i < 1000; i++ {
		a.Add(1e6)
	}
	a.Snapshot()
	for i := 0; i < 1000; i++ {
		a.Add(1)
	}
	s := a.Summary()
	if s.P50 != 1 || s.P99 != 1 {
		t.Fatalf("stale quantile markers after Snapshot: %+v", s)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("fresh EWMA has value %v", e.Value())
	}
	if got := e.Observe(10); got != 10 {
		t.Fatalf("first sample seeds directly: got %v", got)
	}
	if got := e.Observe(20); got != 15 {
		t.Fatalf("alpha 0.5 step: got %v want 15", got)
	}
	if got := e.Observe(15); got != 15 {
		t.Fatalf("steady sample moves value: got %v", got)
	}
	if e.Value() != 15 {
		t.Fatalf("Value = %v", e.Value())
	}
	// Out-of-range alpha clamps rather than producing a frozen average.
	c := NewEWMA(-3)
	c.Observe(0)
	if got := c.Observe(100); got != 10 {
		t.Fatalf("clamped alpha: got %v want 10", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("did not converge: %v", e.Value())
	}
}
