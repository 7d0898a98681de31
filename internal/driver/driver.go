// Package driver runs the paper's request cycle over a timed
// explore.World — the simulator — and extracts the paper's metrics from
// it.
//
// Each site loops through the cycle: think for β, issue a request of
// x ≤ φ resources, wait for the grant, hold the resources for α(x),
// release, repeat. A site has one request at a time, so the paper's
// hypothesis 4 holds by construction. The driver owns this cycle and
// schedules it on the World's agenda, next to the deliveries the World
// schedules itself; algorithms only see Request/Release/Deliver, so every
// algorithm runs under a byte-identical workload for a given seed. The
// World's Monitor checks every grant and release, and a violation panics:
// a run that breaks safety must not produce a data point.
package driver

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/metrics"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

// Config parameterizes one run.
type Config struct {
	Workload workload.Config

	// Latency is the network model; nil means Constant{Workload.Gamma}.
	Latency network.LatencyModel

	// Processing is the per-message service time at receiving nodes
	// (δ); deliveries to one node serialize. Zero models infinitely
	// fast receivers.
	Processing sim.Time

	// Warmup and Horizon bound the measurement window. Sites stop
	// issuing new requests at Horizon.
	Warmup  sim.Time
	Horizon sim.Time

	// Drain, when set, keeps the simulation running after Horizon until
	// every issued request has been granted and released, then checks
	// quiescence (the liveness property). Figure runs leave it unset.
	Drain bool

	// WaitBuckets are the inclusive lower edges of the waiting-time
	// size buckets (Figure 7); nil collects a single bucket.
	WaitBuckets []int

	// TraceGrant, when non-nil, observes every grant interval for the
	// Gantt tooling: site, resources, admission and release instants.
	// rs is the site's request generator's own set, valid during the
	// call only: the site's next request refills it. A tracer that
	// keeps the set clones it.
	TraceGrant func(s network.NodeID, rs resource.Set, granted, released sim.Time)
}

// Result is what one run measures.
type Result struct {
	UseRate float64

	// JainWait and JainGrants are Jain fairness indices over the sites'
	// mean waits and grant counts.
	JainWait   float64
	JainGrants float64

	Waiting     metrics.Summary // all sizes, milliseconds
	WaitBuckets []BucketSummary // aligned with Config.WaitBuckets
	Messages    network.Stats   // traffic by kind
	Grants      int             // completed admissions
	MsgPerGrant float64         // synchronization cost per CS
	Events      uint64          // simulator events executed
	Ungranted   int             // requests in the protocol, ungranted at cut-off
}

// BucketSummary pairs a size-bucket edge with its waiting summary.
type BucketSummary struct {
	Edge    int
	Summary metrics.Summary
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config, factory alg.Factory) (Result, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Horizon <= cfg.Warmup {
		return Result{}, fmt.Errorf("driver: horizon %v ≤ warmup %v", cfg.Horizon, cfg.Warmup)
	}
	if cfg.Processing < 0 {
		return Result{}, fmt.Errorf("driver: negative processing delay %v", cfg.Processing)
	}
	lat := cfg.Latency
	if lat == nil {
		lat = network.Constant{D: cfg.Workload.Gamma}
	}

	wl := cfg.Workload
	nodes := factory(wl.N, wl.M)
	if len(nodes) != wl.N {
		return Result{}, fmt.Errorf("driver: factory built %d nodes, want %d", len(nodes), wl.N)
	}
	d := &runState{
		cfg:      cfg,
		use:      metrics.NewUseRate(wl.M, cfg.Warmup, cfg.Horizon),
		waiting:  metrics.NewWaiting(cfg.WaitBuckets),
		siteWait: make([]metrics.Accum, wl.N),
		sites:    make([]siteState, wl.N),
	}
	w := explore.NewTimed(nodes, wl.M, network.NewTiming(wl.N, lat, cfg.Processing), d.granted)
	d.w = w
	for i := range d.sites {
		st := &d.sites[i]
		st.gen = workload.NewGenerator(wl, i)
		// Bind the cycle callbacks once per site: the request loop
		// reschedules them constantly, and prebound closures keep that
		// off the allocator.
		st.issueFn = func() { d.issue(i) }
		st.releaseFn = func() { d.release(i) }
	}
	// Stagger the very first request of each site by an independent
	// think draw so time zero is not a synchronized thundering herd.
	for i := range d.sites {
		w.At(d.sites[i].gen.Think(), d.sites[i].issueFn)
	}

	w.RunUntil(cfg.Horizon)
	mon := w.Monitor()
	if cfg.Drain {
		w.Run()
		mon.CheckQuiescent(w.Now())
	}

	res := Result{
		UseRate:   d.use.Rate(),
		Waiting:   d.waiting.Overall(),
		Messages:  w.Stats(),
		Grants:    mon.Grants(),
		Events:    w.Executed(),
		Ungranted: len(mon.PendingRequests()),
	}
	waitMeans := make([]float64, wl.N)
	grants := make([]float64, wl.N)
	for i := range d.siteWait {
		s := d.siteWait[i].Summary()
		waitMeans[i], grants[i] = s.Mean, float64(s.Count)
	}
	res.JainWait = metrics.Jain(waitMeans)
	res.JainGrants = metrics.Jain(grants)
	for i, e := range d.waiting.Edges() {
		res.WaitBuckets = append(res.WaitBuckets, BucketSummary{Edge: e, Summary: d.waiting.Bucket(i)})
	}
	if res.Grants > 0 {
		res.MsgPerGrant = float64(res.Messages.Total) / float64(res.Grants)
	}
	return res, nil
}

// siteState is one site's position in the request cycle.
type siteState struct {
	gen       *workload.Generator
	req       workload.Request
	issuedAt  sim.Time // waits measure from here
	grantedAt sim.Time

	// issueFn and releaseFn are the site's cycle callbacks, bound once
	// at setup and rescheduled for every request.
	issueFn, releaseFn func()
}

type runState struct {
	cfg      Config
	w        *explore.World
	use      *metrics.UseRate
	waiting  *metrics.Waiting
	siteWait []metrics.Accum
	sites    []siteState
}

// issue starts site s's next request, unless the horizon has passed.
func (d *runState) issue(s int) {
	now := d.w.Now()
	if now >= d.cfg.Horizon {
		return
	}
	st := &d.sites[s]
	st.req = st.gen.Next()
	st.issuedAt = now
	d.w.Request(s, st.req.Resources)
}

// granted is the World's grant callback: site s entered its CS.
func (d *runState) granted(s int) {
	st := &d.sites[s]
	now := d.w.Now()
	st.grantedAt = now
	if st.issuedAt >= d.cfg.Warmup {
		d.waiting.Observe(st.req.Size, now-st.issuedAt)
		d.siteWait[s].Add((now - st.issuedAt).Milliseconds())
	}
	st.req.Resources.ForEach(func(r resource.ID) { d.use.Acquire(int(r), now) })
	d.w.After(st.req.CS, st.releaseFn)
}

// release ends site s's critical section and schedules its next
// request.
func (d *runState) release(s int) {
	st := &d.sites[s]
	now := d.w.Now()
	st.req.Resources.ForEach(func(r resource.ID) { d.use.Release(int(r), now) })
	if d.cfg.TraceGrant != nil {
		d.cfg.TraceGrant(network.NodeID(s), st.req.Resources, st.grantedAt, now)
	}
	d.w.Release(s)
	next := now + st.gen.Think()
	if next < d.cfg.Horizon {
		d.w.At(next, st.issueFn)
	}
}
