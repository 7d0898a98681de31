// Adaptive admission: the load-aware half of the scheduler.
//
// The fixed policies (FIFO/SSF/EDF) order the queue blind to observed
// load and never shed: past the saturation knee every queued request's
// sojourn time grows without bound while goodput stays flat, and a
// static queue bound would be either too small (shedding a node that
// could keep up) or too large (admitting past the knee). The Adaptive
// policy closes the loop: the
// scheduler tracks EWMAs of queue depth, grant latency (enqueue →
// admission into the protocol), slot occupancy (admission → release),
// admitted request size, and overload-denial rate, and uses them to
//
//  1. switch its ordering between EDF-with-aging (calm: honor
//     deadlines) and SSF (pressure: small requests conflict less and
//     release sooner, draining the queue fastest), with hysteresis so
//     the mode does not flap;
//  2. self-tune an admission bound from Little's law
//     (bound ≈ target latency / EWMA slot occupancy): a queue deeper
//     than the bound cannot possibly meet the latency target, so new
//     arrivals are shed early (DenyOverloaded) while the queue is
//     still short of the knee — a client learns at once that the node
//     is saturated instead of parking in a queue that has already
//     collapsed;
//  3. cost-weight wide acquires under pressure: a request for ≥ 2× the
//     EWMA admitted size blocks many small ones, so it sheds at half
//     the bound when the node is pressured (aging still guarantees any
//     admitted wide request is not starved).
//
// All EWMA updates happen in the event loop that owns the scheduler
// (the live node loop) — the state needs no locks.
// The published snapshot (depth, bound, pressure, mean size) is
// atomic, so server connection goroutines can consult Overloaded on
// the admission fast path without entering the loop; NoteShed from
// those goroutines only bumps an atomic counter that the loop folds
// into the denial-rate EWMA on its next push or pop.
package serve

import (
	"math"
	"sync/atomic"

	"container/heap"

	"mralloc/internal/metrics"
	"mralloc/internal/sim"
)

// DefaultAdmitTarget is the grant-latency target the Adaptive policy
// tunes toward when the configuration leaves it zero.
const DefaultAdmitTarget = 100 * sim.Millisecond

const (
	// minAdmitBound keeps the self-tuned bound from collapsing to zero
	// on a transient spike in slot occupancy — a node always accepts a
	// short queue.
	minAdmitBound = 8 // probed below
	// maxAdmitBound caps the bound when slot occupancy is tiny; beyond
	// this a queue is a memory-pressure problem before it is a latency
	// one.
	maxAdmitBound = 1 << 20
	// wideFactor: a request for at least wideFactor × the EWMA admitted
	// size is "wide" and sheds at bound/2 under pressure.
	wideFactor = 2.0
	// shedCalm is the denial-rate ceiling for leaving pressure mode:
	// while more than 5% of arrivals are being shed the node is not
	// calm, whatever the grant latency of the survivors says.
	shedCalm = 0.05
)

// Load is a point-in-time snapshot of one node's admission-load
// statistics, as tracked by the Adaptive policy. The zero value is
// returned for fixed-policy schedulers.
type Load struct {
	// Depth is the instantaneous queue depth.
	Depth int
	// EWMADepth is the smoothed queue depth.
	EWMADepth float64
	// GrantLatency is the EWMA of enqueue→admission latency.
	GrantLatency sim.Time
	// Service is the EWMA of admission→release slot occupancy (zero
	// until the runtime reports completions via ObserveService).
	Service sim.Time
	// ShedRate is the EWMA fraction of arrivals denied for overload.
	ShedRate float64
	// MeanSize is the EWMA admitted request size.
	MeanSize float64
	// Bound is the current self-tuned admission bound; 0 = unbounded
	// (no service-time observations yet).
	Bound int
	// Pressure reports whether ordering has switched to SSF.
	Pressure bool
}

// adaptiveState is the Adaptive policy's tracking state. Fields above
// the atomics are owned by the scheduler's event loop; the atomics are
// the cross-goroutine interface.
type adaptiveState struct {
	target  sim.Time
	wait    metrics.EWMA // grant latency: enqueue → admission
	service metrics.EWMA // slot occupancy: admission → release
	depth   metrics.EWMA
	shed    metrics.EWMA // 1 per shed, 0 per admission → denial rate
	size    metrics.EWMA // admitted request size

	// pendingShed counts sheds noted by goroutines outside the loop,
	// folded into the shed EWMA on the loop's next push or pop.
	pendingShed atomic.Int64

	// Published snapshot, readable from any goroutine.
	depthA    atomic.Int64
	boundA    atomic.Int64
	pressureA atomic.Bool
	waitA     atomic.Uint64 // Float64bits
	serviceA  atomic.Uint64 // Float64bits
	shedA     atomic.Uint64 // Float64bits
	sizeA     atomic.Uint64 // Float64bits
	ewDepthA  atomic.Uint64 // Float64bits
}

func newAdaptiveState(target sim.Time) *adaptiveState {
	return &adaptiveState{
		target:  target,
		wait:    metrics.NewEWMA(0.1),
		service: metrics.NewEWMA(0.1),
		depth:   metrics.NewEWMA(0.1),
		shed:    metrics.NewEWMA(0.05),
		size:    metrics.NewEWMA(0.1),
	}
}

// onPush runs inside the loop after an item is enqueued.
func (ad *adaptiveState) onPush(s *Scheduler) {
	ad.drainSheds()
	ad.onDepth(s.heap.Len())
}

// onPop runs inside the loop after an item is admitted (policy pick or
// aging promotion alike).
func (ad *adaptiveState) onPop(s *Scheduler, it *Item, now sim.Time) {
	ad.drainSheds()
	ad.shed.Observe(0) // an admission is a non-shed arrival outcome
	ad.shedA.Store(math.Float64bits(ad.shed.Value()))
	ad.waitA.Store(math.Float64bits(ad.wait.Observe(float64(now - it.Enqueued))))
	ad.sizeA.Store(math.Float64bits(ad.size.Observe(float64(it.Size))))
	ad.onDepth(s.heap.Len())
	ad.switchMode(s)
}

// onDepth publishes a new instantaneous depth and folds it into the
// smoothed depth.
func (ad *adaptiveState) onDepth(depth int) {
	ad.depthA.Store(int64(depth))
	ad.ewDepthA.Store(math.Float64bits(ad.depth.Observe(float64(depth))))
}

// drainSheds folds externally noted denials into the shed EWMA.
func (ad *adaptiveState) drainSheds() {
	for n := ad.pendingShed.Swap(0); n > 0; n-- {
		ad.shed.Observe(1)
	}
	ad.shedA.Store(math.Float64bits(ad.shed.Value()))
}

// switchMode flips the heap ordering between EDF (calm) and SSF
// (pressure) with hysteresis: enter pressure when the grant latency
// passes half the target, leave only once it falls below an eighth and
// the node has (mostly) stopped shedding. Each flip changes the heap
// comparator, so the heap is re-established in place.
func (ad *adaptiveState) switchMode(s *Scheduler) {
	w := ad.wait.Value()
	switch {
	case !ad.pressureA.Load() && w >= float64(ad.target)/2:
		ad.pressureA.Store(true)
		s.heap.mode = SSF
		heap.Init(&s.heap)
	case ad.pressureA.Load() && w <= float64(ad.target)/8 && ad.shed.Value() < shedCalm:
		ad.pressureA.Store(false)
		s.heap.mode = EDF
		heap.Init(&s.heap)
	}
}

// observeService folds one admission→release occupancy sample in and
// retunes the admission bound (Little's law: a queue longer than
// target/occupancy cannot meet the target).
func (ad *adaptiveState) observeService(d sim.Time) {
	if d < 0 {
		d = 0
	}
	sv := ad.service.Observe(float64(d))
	ad.serviceA.Store(math.Float64bits(sv))
	if sv <= 0 {
		ad.boundA.Store(0)
		return
	}
	b := float64(ad.target) / sv
	if b < minAdmitBound {
		b = minAdmitBound
	} else if b > maxAdmitBound {
		b = maxAdmitBound
	}
	ad.boundA.Store(int64(b))
}

// SetTarget sets the Adaptive policy's grant-latency target (≤ 0
// restores DefaultAdmitTarget). No-op for fixed policies. Call it
// before the scheduler starts serving — it is not synchronized with
// the event loop.
func (s *Scheduler) SetTarget(t sim.Time) {
	if s.ad == nil {
		return
	}
	if t <= 0 {
		t = DefaultAdmitTarget
	}
	s.ad.target = t
}

// ObserveService reports one admission→release slot occupancy to the
// Adaptive policy, which retunes its admission bound from it. Called
// by the runtime that owns the scheduler when a granted request
// releases; a no-op for fixed policies. Until it is first called the
// bound stays unbounded and Adaptive is pure load-aware ordering.
func (s *Scheduler) ObserveService(d sim.Time) {
	if s.ad != nil {
		s.ad.observeService(d)
	}
}

// NoteShed records that an arrival for this node was denied for
// overload. Unlike every other scheduler method it is safe from any
// goroutine: server connection goroutines shed on the admission fast
// path without entering the node loop.
func (s *Scheduler) NoteShed() {
	if s.ad != nil {
		s.ad.pendingShed.Add(1)
	}
}

// Overloaded reports whether an arrival of the given size should be
// shed rather than queued: the queue has reached the self-tuned bound,
// or the node is pressured and the request is wide (≥ 2× the EWMA
// admitted size) with the queue past half the bound. Always false for
// fixed policies and before any service-time observation. Safe from
// any goroutine; the caller records an actual denial with NoteShed.
func (s *Scheduler) Overloaded(size int) bool {
	ad := s.ad
	if ad == nil {
		return false
	}
	bound := ad.boundA.Load()
	if bound <= 0 {
		return false
	}
	depth := ad.depthA.Load()
	if depth >= bound {
		return true
	}
	if ad.pressureA.Load() {
		if mean := math.Float64frombits(ad.sizeA.Load()); mean > 0 &&
			float64(size) >= wideFactor*mean && depth >= bound/2 {
			return true
		}
	}
	return false
}

// Load returns the published load snapshot (the zero Load for fixed
// policies). Safe from any goroutine.
func (s *Scheduler) Load() Load {
	ad := s.ad
	if ad == nil {
		return Load{}
	}
	return Load{
		Depth:        int(ad.depthA.Load()),
		EWMADepth:    math.Float64frombits(ad.ewDepthA.Load()),
		GrantLatency: sim.Time(math.Float64frombits(ad.waitA.Load())),
		Service:      sim.Time(math.Float64frombits(ad.serviceA.Load())),
		ShedRate:     math.Float64frombits(ad.shedA.Load()),
		MeanSize:     math.Float64frombits(ad.sizeA.Load()),
		Bound:        int(ad.boundA.Load()),
		Pressure:     ad.pressureA.Load(),
	}
}
