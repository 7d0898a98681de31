// Package driver wires one algorithm, one workload, and one simulated
// network into a complete experiment run and extracts the paper's
// metrics from it.
//
// Each site loops through the paper's request cycle: think for β, issue
// a request of x ≤ φ resources, wait for the grant, hold the resources
// for α(x), release, repeat. A site has one request at a time, so the
// paper's hypothesis 4 holds by construction. The driver owns this
// cycle; algorithms only see Request/Release/Deliver and answer through
// Env.Granted, so every algorithm runs under a byte-identical workload
// for a given seed.
package driver

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/metrics"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
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

	// OnViolation receives invariant violations; nil panics, which is
	// the right default for both tests and figure generation — a run
	// that breaks safety must not produce a data point.
	OnViolation func(verify.Violation)

	// TraceGrant, when non-nil, observes every grant interval for the
	// Gantt tooling: site, resources, admission and release instants.
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
	onViolation := cfg.OnViolation
	if onViolation == nil {
		onViolation = func(v verify.Violation) { panic(v) }
	}

	wl := cfg.Workload
	eng := sim.New()
	nw := network.New(eng, wl.N, lat)
	nw.SetProcessingDelay(cfg.Processing)
	nodes := factory(wl.N, wl.M)
	if len(nodes) != wl.N {
		return Result{}, fmt.Errorf("driver: factory built %d nodes, want %d", len(nodes), wl.N)
	}

	d := &runState{
		cfg:      cfg,
		eng:      eng,
		nw:       nw,
		nodes:    nodes,
		mon:      verify.New(wl.M, onViolation),
		use:      metrics.NewUseRate(wl.M, cfg.Warmup, cfg.Horizon),
		waiting:  metrics.NewWaiting(cfg.WaitBuckets),
		siteWait: make([]metrics.Accum, wl.N),
		sites:    make([]siteState, wl.N),
	}
	for i := range nodes {
		id := network.NodeID(i)
		env := &nodeEnv{run: d, id: id}
		nodes[i].Attach(env)
		nw.Bind(id, nodes[i].Deliver)
		st := &d.sites[i]
		st.gen = workload.NewGenerator(wl, i)
		// Bind the cycle callbacks once per site: the request loop
		// reschedules them constantly, and prebound closures keep that
		// off the allocator.
		st.issueFn = func() { d.issue(id) }
		st.releaseFn = func() { d.release(id) }
	}
	// Stagger the very first request of each site by an independent
	// think draw so time zero is not a synchronized thundering herd.
	for i := range d.sites {
		eng.At(d.sites[i].gen.Think(), d.sites[i].issueFn)
	}

	eng.RunUntil(cfg.Horizon)
	if cfg.Drain {
		eng.Run()
		d.mon.CheckQuiescent(eng.Now())
	}

	res := Result{
		UseRate:   d.use.Rate(),
		Waiting:   d.waiting.Overall(),
		Messages:  nw.Stats(),
		Grants:    d.mon.Grants(),
		Events:    eng.Executed(),
		Ungranted: len(d.mon.PendingRequests()),
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
	waiting   bool     // req is issued and not yet granted
	grantedAt sim.Time

	// issueFn and releaseFn are the site's cycle callbacks, bound once
	// at setup and rescheduled for every request.
	issueFn, releaseFn func()
}

type runState struct {
	cfg      Config
	eng      *sim.Engine
	nw       *network.Network
	nodes    []alg.Node
	mon      *verify.Monitor
	use      *metrics.UseRate
	waiting  *metrics.Waiting
	siteWait []metrics.Accum
	sites    []siteState
}

// issue starts site id's next request, unless the horizon has passed.
func (d *runState) issue(id network.NodeID) {
	now := d.eng.Now()
	if now >= d.cfg.Horizon {
		return
	}
	st := &d.sites[id]
	st.req = st.gen.Next()
	st.issuedAt = now
	st.waiting = true
	d.mon.Requested(id, now)
	d.nodes[id].Request(st.req.Resources)
}

// granted is the Env.Granted callback: site id entered its CS.
func (d *runState) granted(id network.NodeID) {
	st := &d.sites[id]
	if !st.waiting {
		panic(fmt.Sprintf("driver: site %d granted with no request waiting", id))
	}
	st.waiting = false
	now := d.eng.Now()
	st.grantedAt = now
	d.mon.Granted(id, st.req.Resources, now)
	if st.issuedAt >= d.cfg.Warmup {
		d.waiting.Observe(st.req.Size, now-st.issuedAt)
		d.siteWait[id].Add((now - st.issuedAt).Milliseconds())
	}
	st.req.Resources.ForEach(func(r resource.ID) { d.use.Acquire(int(r), now) })
	d.eng.After(st.req.CS, st.releaseFn)
}

// release ends site id's critical section and schedules its next
// request.
func (d *runState) release(id network.NodeID) {
	st := &d.sites[id]
	now := d.eng.Now()
	st.req.Resources.ForEach(func(r resource.ID) { d.use.Release(int(r), now) })
	d.mon.Released(id, st.req.Resources, now)
	if d.cfg.TraceGrant != nil {
		d.cfg.TraceGrant(id, st.req.Resources, st.grantedAt, now)
	}
	d.nodes[id].Release()
	next := now + st.gen.Think()
	if next < d.cfg.Horizon {
		d.eng.At(next, st.issueFn)
	}
}

// nodeEnv adapts the run state to the alg.Env contract for one site.
type nodeEnv struct {
	run *runState
	id  network.NodeID
}

func (e *nodeEnv) ID() network.NodeID { return e.id }
func (e *nodeEnv) N() int             { return e.run.cfg.Workload.N }
func (e *nodeEnv) M() int             { return e.run.cfg.Workload.M }
func (e *nodeEnv) Now() sim.Time      { return e.run.eng.Now() }

func (e *nodeEnv) Send(to network.NodeID, m network.Message) {
	e.run.nw.Send(e.id, to, m)
}

func (e *nodeEnv) Granted() { e.run.granted(e.id) }
