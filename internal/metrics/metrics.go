// Package metrics implements the two measures of the paper's evaluation
// (§5) plus supporting statistics:
//
//   - resource-use rate: the fraction of experiment time each resource
//     spends inside somebody's critical section, averaged over the M
//     resources (the colored area of the paper's Gantt diagrams);
//   - request waiting time: the interval between issuing a request and
//     entering the critical section, overall and bucketed by request
//     size (Figures 6 and 7 report means and standard deviations).
//
// All accumulation happens in virtual time and is clipped to a
// [warmup, horizon) measurement window so start-up transients do not
// bias steady-state results.
package metrics

import (
	"fmt"
	"math"

	"mralloc/internal/sim"
)

// Summary holds mean/deviation/quantile statistics of a sample set.
// P50/P95/P99 are streaming estimates (P² algorithm, exact below six
// samples); mean and max alone hide tail latency under multiplexed
// load, which is exactly what the serve-layer benchmarks measure.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Accum accumulates samples for a Summary using Welford's algorithm,
// which is numerically stable for long runs, plus one P² estimator per
// reported quantile — constant memory however long the run.
type Accum struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
	q50        p2
	q95        p2
	q99        p2
}

// Add records one sample.
func (a *Accum) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if !a.hasExtrema || x < a.min {
		a.min = x
	}
	if !a.hasExtrema || x > a.max {
		a.max = x
	}
	a.hasExtrema = true
	a.q50.add(0.50, x)
	a.q95.add(0.95, x)
	a.q99.add(0.99, x)
}

// Summary finalizes the accumulated statistics.
func (a *Accum) Summary() Summary {
	s := Summary{Count: a.n, Mean: a.mean, Min: a.min, Max: a.max,
		P50: a.q50.quantile(0.50), P95: a.q95.quantile(0.95), P99: a.q99.quantile(0.99)}
	if a.n > 1 {
		s.StdDev = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return s
}

// Snapshot returns the Summary of everything Added since the previous
// Snapshot (or since creation) and resets the accumulator — including
// the P² quantile markers, which otherwise converge over the whole
// lifetime of the Accum and cannot report per-interval quantiles.
// Open-loop load drivers call this at each reporting interval (and at
// the warmup boundary, discarding the transient window).
func (a *Accum) Snapshot() Summary {
	s := a.Summary()
	*a = Accum{}
	return s
}

// EWMA is an exponentially weighted moving average: each Observe moves
// the value alpha of the way toward the sample, so recent load counts
// geometrically more than history. The zero value is unusable — use
// NewEWMA, which also seeds the first sample directly instead of
// averaging it against zero.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA creates an average with the given smoothing factor in (0, 1];
// out-of-range values are clamped to 0.1 (a half-life of ~6.6 samples).
func NewEWMA(alpha float64) EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.1
	}
	return EWMA{alpha: alpha}
}

// Observe folds one sample in and returns the updated average.
func (e *EWMA) Observe(x float64) float64 {
	if !e.init {
		e.v, e.init = x, true
		return x
	}
	e.v += e.alpha * (x - e.v)
	return e.v
}

// Value reports the current average (zero before any sample).
func (e *EWMA) Value() float64 { return e.v }

// UseRate tracks per-resource busy intervals and reports the aggregate
// use rate over a measurement window.
type UseRate struct {
	m       int
	busy    []sim.Time // accumulated busy time inside the window
	since   []sim.Time // acquisition instant while held, else -1
	warmup  sim.Time
	horizon sim.Time
}

// NewUseRate creates a tracker for m resources measuring [warmup, horizon).
func NewUseRate(m int, warmup, horizon sim.Time) *UseRate {
	if horizon <= warmup {
		panic("metrics: empty measurement window")
	}
	u := &UseRate{
		m:       m,
		busy:    make([]sim.Time, m),
		since:   make([]sim.Time, m),
		warmup:  warmup,
		horizon: horizon,
	}
	for i := range u.since {
		u.since[i] = -1
	}
	return u
}

// Acquire marks resource r busy from instant t.
func (u *UseRate) Acquire(r int, t sim.Time) {
	if u.since[r] >= 0 {
		panic(fmt.Sprintf("metrics: resource %d acquired twice", r))
	}
	u.since[r] = t
}

// Release marks resource r free from instant t, accumulating the busy
// span clipped to the measurement window.
func (u *UseRate) Release(r int, t sim.Time) {
	s := u.since[r]
	if s < 0 {
		panic(fmt.Sprintf("metrics: resource %d released while free", r))
	}
	u.since[r] = -1
	u.accumulate(r, s, t)
}

func (u *UseRate) accumulate(r int, from, to sim.Time) {
	if from < u.warmup {
		from = u.warmup
	}
	if to > u.horizon {
		to = u.horizon
	}
	if to > from {
		u.busy[r] += to - from
	}
}

// Rate finalizes the aggregate use rate in [0, 1]: total busy time over
// M × window. Resources still held at the horizon count up to it.
func (u *UseRate) Rate() float64 {
	var total sim.Time
	for r, b := range u.busy {
		total += b
		if u.since[r] >= 0 {
			from, to := u.since[r], u.horizon
			if from < u.warmup {
				from = u.warmup
			}
			if to > from {
				total += to - from
			}
		}
	}
	window := u.horizon - u.warmup
	return float64(total) / (float64(window) * float64(u.m))
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over non-negative
// samples: 1 when all sites are served equally, 1/n when one site gets
// everything. Used to check that the dynamic scheduling of the paper's
// algorithm does not starve anyone in practice.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Waiting collects request waiting times, bucketed by request size the
// way Figure 7 reports them.
type Waiting struct {
	overall Accum
	buckets []Accum
	edges   []int
}

// NewWaiting creates a collector whose buckets are defined by inclusive
// lower edges, e.g. edges {1,17,33,49,65,80} reproduce Figure 7's
// x-axis groups (a size falls in the last bucket whose edge ≤ size).
func NewWaiting(edges []int) *Waiting {
	if len(edges) == 0 {
		edges = []int{1}
	}
	return &Waiting{buckets: make([]Accum, len(edges)), edges: edges}
}

// Observe records a request of the given size that waited w.
func (w *Waiting) Observe(size int, wait sim.Time) {
	ms := wait.Milliseconds()
	w.overall.Add(ms)
	b := 0
	for i, e := range w.edges {
		if size >= e {
			b = i
		}
	}
	w.buckets[b].Add(ms)
}

// Overall reports the all-sizes waiting summary (milliseconds).
func (w *Waiting) Overall() Summary { return w.overall.Summary() }

// Bucket reports the summary of the i-th size bucket (milliseconds).
func (w *Waiting) Bucket(i int) Summary { return w.buckets[i].Summary() }

// Edges exposes the bucket lower edges, aligned with Bucket indices.
func (w *Waiting) Edges() []int { return w.edges }
