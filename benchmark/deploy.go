package main

// deploy.go is the only file of the benchmark that touches the program.
// Every deployment is assembled the way cmd/mrallocd assembles a daemon
// with its default flags: public constructors and config structs only —
// no Tune/Set* knob, no Send* call — so that a change which deletes a
// knob or a send variant leaves the benchmark compiling. When the
// program's surface does change, this file is the whole re-anchor.
//
// Program symbols used (keep this list exact):
//
//	alg        Factory, Node, Env, Ticker, Drainer
//	core       NewFactory, WithLoan, Options.LeaseTTL
//	driver     Run, Config, Result
//	live       New, Config, Cluster.{Acquire, NewSession, Stats, NodeLoad, Overloaded,
//	           NoteShed, Close}, Session.{Acquire, Close}
//	network    NodeID, Message
//	resource   ID, Set.Min, NewSet, Set.Add, NewShardMap, ShardMap.{Size, ShardOf, Local, Split}
//	serve      NewServer, ServerConfig, Server.{Addr, QueueLen, WireStats, Close},
//	           Dial, Client.{Acquire, WireStats, Close}, AnyNode, ErrOverloaded,
//	           AcquireOpts, BackendSession, Policy, Adaptive, Policies, NewScheduler,
//	           Item, Scheduler.{Push, Pop}
//	sim        Time, Millisecond, Microsecond
//	transport  ListenTCP, TCP.{Addr, Connect, WireStats, Close}, NewChaos,
//	           Chaos.{Apply, ChaosStats}, Spec, Faults, NewReliable, Reliable.RelStats,
//	           WireOptions, Transport
//	wire       Samples, Append, Decode, AppendFrame, NewFrameReader, FrameReader.Next,
//	           NewCoalescer, Coalescer.{Append, Close}, CoalescerStats
//	workload   Config, NewGenerator, Generator.Next, Request.Size

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/driver"
	"mralloc/internal/live"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
	"mralloc/internal/workload"
)

// outcome classifies how one acquire ended, in the benchmark's terms.
type outcome uint8

const (
	outGranted outcome = iota
	outShed            // refused by admission control (DenyOverloaded)
	outTimeout         // withdrawn at the request's deadline
	outError           // anything else: a defect or a broken deployment
)

// acquireFunc performs one acquire through a deployment's front door.
// release is non-nil exactly when the outcome is outGranted.
type acquireFunc func(ctx context.Context, resources []int) (release func(), out outcome, err error)

// Lossy-workload settings (ISSUE: LeaseTTL 250 ms, Tick 20 ms, drop 2 %,
// dup 2 %, delay ≤ 100 µs).
const (
	lossyLeaseTTL = 250 * time.Millisecond
	lossyTick     = 20 * time.Millisecond
	lossyDrop     = 0.02
	lossyDup      = 0.02
	lossyDelayMax = 100 * time.Microsecond
)

// deployment is one running system under test plus the doors the load
// generator drives it through.
type deployment struct {
	w        *workloadSpec
	clusters []*live.Cluster
	tcps     []*transport.TCP
	rels     []*transport.Reliable
	chaoses  []*transport.Chaos
	servers  []*serve.Server
	clients  []*serve.Client
	sessions []*live.Session
	locals   [][]int // node ids hosted per daemon

	// doors[i] is the acquire path of load-generator session i (closed
	// loop) or of client connection i (open loop).
	doors []acquireFunc
}

func classify(ctx context.Context, err error) outcome {
	switch {
	case err == nil:
		return outGranted
	case errors.Is(err, serve.ErrOverloaded):
		return outShed
	case ctx.Err() != nil:
		return outTimeout
	default:
		return outError
	}
}

// shardSizes reports the local universe of every shard of w (one shard
// of M resources when flat), and checks the generator's idea of the
// layout against the program's.
func shardSizes(w *workloadSpec) ([]int, error) {
	g := max(w.shards, 1)
	sm := resource.NewShardMap(w.resources, g)
	sizes := make([]int, g)
	for s := range sizes {
		sizes[s] = sm.Size(s)
		lo, size := shardRange(w.resources, g, s)
		if size != sizes[s] || sm.ShardOf(resource.ID(lo)) != s || sm.ShardOf(resource.ID(lo+size-1)) != s {
			return nil, fmt.Errorf("generator shard layout disagrees with resource.ShardMap at shard %d", s)
		}
	}
	return sizes, nil
}

// deploy assembles w's deployment. tr, when non-nil, installs the
// benchmark's wrappers on the three seams; nil is the untraced
// deployment every end-to-end number comes from.
func deploy(w *workloadSpec, seed int64, tr *tracer) (*deployment, error) {
	d := &deployment{w: w}
	var err error
	switch w.fabric {
	case fabricTCP, fabricLossy:
		err = d.startDaemons(seed, tr)
	case fabricMem:
		err = d.startMem(tr)
	default:
		err = fmt.Errorf("workload %s has no live deployment", w.name)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func factoryFor(w *workloadSpec, tr *tracer) alg.Factory {
	opt := core.WithLoan() // mrallocd's default -alg counter-loan
	if w.fabric == fabricLossy {
		opt.LeaseTTL = sim.Time(lossyLeaseTTL)
	}
	f := core.NewFactory(opt)
	if tr != nil {
		f = tracedFactory(f, tr)
	}
	return f
}

func (d *deployment) startMem(tr *tracer) error {
	w := d.w
	c, err := live.New(live.Config{
		Nodes:     w.nodes,
		Resources: w.resources,
		Shards:    w.shards,
		Latency:   w.linkDelay,
	}, factoryFor(w, tr))
	if err != nil {
		return err
	}
	d.clusters = append(d.clusters, c)
	for i := 0; i < w.sessions; i++ {
		node := i % w.nodes
		if w.shards > 1 {
			// Long-lived sessions, as a client of a sharded daemon holds.
			s, err := c.NewSession(node)
			if err != nil {
				return err
			}
			d.sessions = append(d.sessions, s)
			d.doors = append(d.doors, func(ctx context.Context, res []int) (func(), outcome, error) {
				rel, err := s.Acquire(ctx, serve.AcquireOpts{Resources: res})
				return rel, classify(ctx, err), err
			})
			continue
		}
		d.doors = append(d.doors, clusterDoor(c, node))
	}
	return nil
}

func clusterDoor(c *live.Cluster, node int) acquireFunc {
	return func(ctx context.Context, res []int) (func(), outcome, error) {
		rel, err := c.Acquire(ctx, node, res...)
		return rel, classify(ctx, err), err
	}
}

// startDaemons assembles what w.daemons mrallocd processes would be on
// one host: a TCP peer endpoint each (every cross-daemon protocol
// message crosses a real loopback socket), a live cluster hosting its
// share of the nodes and — on fabricTCP — a client port with one
// serve.Client connected to it.
func (d *deployment) startDaemons(seed int64, tr *tracer) error {
	w := d.w
	per := w.nodes / w.daemons
	d.locals = make([][]int, w.daemons)
	for id := 0; id < w.nodes; id++ {
		d.locals[id/per] = append(d.locals[id/per], id)
	}
	addrs := make([]string, w.nodes)
	for di := 0; di < w.daemons; di++ {
		t, err := transport.ListenTCP("127.0.0.1:0", w.nodes, d.locals[di]...)
		if err != nil {
			return err
		}
		d.tcps = append(d.tcps, t)
		for _, id := range d.locals[di] {
			addrs[id] = t.Addr()
		}
	}
	var policy serve.Policy // "" is mrallocd's default -policy fifo
	if w.adaptive {
		policy = serve.Adaptive
	}
	for di := 0; di < w.daemons; di++ {
		if err := d.tcps[di].Connect(addrs); err != nil {
			return err
		}
		var fabric transport.Transport = d.tcps[di]
		cfg := live.Config{
			Nodes:     w.nodes,
			Resources: w.resources,
			Local:     d.locals[di],
			Policy:    policy,
			// mrallocd's flag defaults: -wire-delta=true, everything
			// else zero.
			Wire: transport.WireOptions{Delta: true},
		}
		if w.fabric == fabricLossy {
			// mrallocd -chaos-drop/-chaos-dup/-chaos-delay-max -reliable
			// -lease-ttl: live → Reliable → Chaos → TCP.
			ch := transport.NewChaos(fabric, seed)
			ch.Apply(transport.Spec{Seed: seed, Faults: transport.Faults{
				Drop: lossyDrop, Dup: lossyDup, DelayMax: lossyDelayMax,
			}})
			rel := transport.NewReliable(ch)
			d.chaoses = append(d.chaoses, ch)
			d.rels = append(d.rels, rel)
			fabric = rel
			cfg.Tick = lossyTick
		}
		cfg.Transport = fabric
		c, err := live.New(cfg, factoryFor(w, tr))
		if err != nil {
			return err
		}
		d.clusters = append(d.clusters, c)
		if !w.clientPort() {
			continue
		}
		scfg := serve.ServerConfig{
			Listen:    "127.0.0.1:0",
			Nodes:     w.nodes,
			Resources: w.resources,
			Local:     d.locals[di],
			Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
		}
		if tr != nil {
			scfg.Open = func(node int) (serve.BackendSession, error) {
				s, err := c.NewSession(node)
				if err != nil {
					return nil, err
				}
				return &tracedSession{inner: s, tr: tr}, nil
			}
		}
		if w.adaptive {
			scfg.Overloaded = c.Overloaded
			scfg.NoteShed = c.NoteShed
		}
		srv, err := serve.NewServer(scfg)
		if err != nil {
			return err
		}
		d.servers = append(d.servers, srv)
		cl, err := serve.Dial(srv.Addr())
		if err != nil {
			return err
		}
		d.clients = append(d.clients, cl)
	}
	switch {
	case w.open():
		for _, cl := range d.clients {
			d.doors = append(d.doors, clientDoor(cl))
		}
	case w.clientPort():
		for i := 0; i < w.sessions; i++ {
			d.doors = append(d.doors, clientDoor(d.clients[i%len(d.clients)]))
		}
	default:
		for i := 0; i < w.sessions; i++ {
			node := i % w.nodes
			d.doors = append(d.doors, clusterDoor(d.clusters[node/per], node))
		}
	}
	return nil
}

func clientDoor(cl *serve.Client) acquireFunc {
	return func(ctx context.Context, res []int) (func(), outcome, error) {
		rel, err := cl.Acquire(ctx, serve.AnyNode, res...)
		return rel, classify(ctx, err), err
	}
}

// close tears the deployment down and returns once every goroutine the
// program's Close methods wait for has exited.
func (d *deployment) close() {
	for _, s := range d.sessions {
		s.Close()
	}
	for _, cl := range d.clients {
		cl.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, c := range d.clusters {
		c.Close() // closes its transport stack
	}
	for _, t := range d.tcps {
		t.Close() // endpoints no cluster adopted (assembly error paths)
	}
}

func addWire(dst *wireCounters, s wire.CoalescerStats) {
	dst.Writes += s.Writes
	dst.Flushes += s.Flushes
	dst.Frames += s.Frames
	dst.Bytes += s.Bytes
	dst.Stalls += s.Stalls
}

// counters snapshots every counter the program exposes through its
// Stats-style accessors.
func (d *deployment) counters() sysCounters {
	var s sysCounters
	s.Msgs = make(map[string]int64)
	for _, c := range d.clusters {
		for k, v := range c.Stats() {
			s.Msgs[k] += v
		}
	}
	for _, t := range d.tcps {
		addWire(&s.Peer, t.WireStats())
	}
	for _, srv := range d.servers {
		addWire(&s.Port, srv.WireStats())
	}
	for _, cl := range d.clients {
		addWire(&s.Port, cl.WireStats())
	}
	for _, r := range d.rels {
		rs := r.RelStats()
		s.Retransmits += rs.Retransmits
		s.DupsDropped += rs.DupsDropped
		s.Gaps += rs.Gaps
		s.AcksSent += rs.AcksSent
	}
	for _, ch := range d.chaoses {
		cs := ch.ChaosStats()
		s.ChaosDropped += cs.Dropped
		s.ChaosDup += cs.Duplicated
	}
	return s
}

// gauges reads the instantaneous admission state of every node behind
// a client port: atomic loads only, cheap enough to sample often.
func (d *deployment) gauges() []nodeGauge {
	var out []nodeGauge
	for di, srv := range d.servers {
		for _, id := range d.locals[di] {
			g := nodeGauge{queueDepth: srv.QueueLen(id)}
			if d.w.adaptive {
				l := d.clusters[di].NodeLoad(id)
				g.admitBound, g.pressure = l.Bound, l.Pressure
			}
			out = append(out, g)
		}
	}
	return out
}

// ---- seam wrappers (traced run only) ----

// tracedSession wraps serve.BackendSession: one backend.acquire span
// per granted Acquire.
type tracedSession struct {
	inner serve.BackendSession
	tr    *tracer
}

func (s *tracedSession) Acquire(ctx context.Context, opts serve.AcquireOpts) (func(), error) {
	t0 := s.tr.now()
	rel, err := s.inner.Acquire(ctx, opts)
	if err == nil && len(opts.Resources) > 0 {
		s.tr.backendGranted(slices.Min(opts.Resources), t0)
	}
	return rel, err
}

func (s *tracedSession) Close() { s.inner.Close() }

// tracedFactory wraps alg.Factory so that every node it builds is a
// tracedNode. live.New calls the factory once per shard, in shard
// order, which is how a node learns its shard.
func tracedFactory(inner alg.Factory, tr *tracer) alg.Factory {
	shard := 0
	return func(n, m int) []alg.Node {
		nodes := inner(n, m)
		for i := range nodes {
			nodes[i] = &tracedNode{inner: nodes[i], tr: tr, shard: shard, id: i}
		}
		shard++
		return nodes
	}
}

// tracedNode wraps alg.Node, forwarding alg.Ticker and alg.Drainer to
// nodes that have them. A node's methods run serialized (the runtime's
// event loop), so its fields need no lock.
type tracedNode struct {
	inner alg.Node
	tr    *tracer
	shard int
	id    int

	reqStart int64 // instant of the pending Request
	reqFirst int   // its lowest local resource id
}

func (n *tracedNode) Attach(env alg.Env) {
	n.inner.Attach(&tracedEnv{Env: env, n: n})
}

func (n *tracedNode) busy(kind spanKind, t0 int64) {
	n.tr.record(kind, n.shard, n.id, -1, t0, n.tr.now(), 0)
}

func (n *tracedNode) Request(rs resource.Set) {
	t0 := n.tr.now()
	n.reqStart, n.reqFirst = t0, int(rs.Min())
	n.inner.Request(rs)
	n.busy(spanNodeRequest, t0)
}

func (n *tracedNode) Release() {
	t0 := n.tr.now()
	n.inner.Release()
	n.busy(spanNodeRelease, t0)
}

func (n *tracedNode) Deliver(from network.NodeID, m network.Message) {
	t0 := n.tr.now()
	n.tr.delivered(n.shard, int(from), n.id, t0)
	n.inner.Deliver(from, m)
	n.busy(spanNodeDeliver, t0)
}

func (n *tracedNode) Tick(now sim.Time) {
	if tk, ok := n.inner.(alg.Ticker); ok {
		t0 := n.tr.now()
		tk.Tick(now)
		n.busy(spanNodeTick, t0)
	}
}

func (n *tracedNode) Drain() {
	if dr, ok := n.inner.(alg.Drainer); ok {
		dr.Drain()
	}
}

// tracedEnv wraps alg.Env: Send is the runtime's egress (an env.send
// span, and one end of link.transit); Granted closes core.grant_wait.
type tracedEnv struct {
	alg.Env
	n *tracedNode
}

func (e *tracedEnv) Send(to network.NodeID, m network.Message) {
	n := e.n
	t0 := n.tr.now()
	n.tr.sent(n.shard, n.id, int(to), t0)
	e.Env.Send(to, m)
	n.busy(spanEnvSend, t0)
}

func (e *tracedEnv) Granted() {
	e.n.tr.coreGranted(e.n.shard, e.n.id, e.n.reqFirst, e.n.reqStart)
	e.Env.Granted()
}

// locator maps a global resource id to (shard, local id) with the
// program's own shard map, for linking spans across layers.
func locator(w *workloadSpec) func(r int) (shard, local int) {
	sm := resource.NewShardMap(w.resources, max(w.shards, 1))
	return func(r int) (int, int) {
		id := resource.ID(r)
		return sm.ShardOf(id), int(sm.Local(id))
	}
}

// ---- sim_paper ----

// simResult is what one driver.Run iteration reports.
type simResult struct {
	Grants     int
	Msgs       map[string]int64
	TotalMsgs  int64
	Events     uint64
	Ungranted  int
	UseRate    float64
	WaitMeanMS float64
	WaitP50MS  float64
	WaitP99MS  float64
}

// The paper's §5.1 constants, as internal/experiments fixes them for
// its high-load regime (ρ = 0.1) at the Quick scale.
func simConfig(w *workloadSpec, seed int64, horizon sim.Time) driver.Config {
	return driver.Config{
		Workload: workload.Config{
			N: w.nodes, M: w.resources, Phi: w.phi,
			AlphaMin: 5 * sim.Millisecond,
			AlphaMax: 35 * sim.Millisecond,
			Gamma:    600 * sim.Microsecond,
			Rho:      0.1,
			Seed:     seed,
		},
		Processing: 600 * sim.Microsecond,
		Warmup:     min(200*sim.Millisecond, horizon/2),
		Horizon:    horizon,
	}
}

// runSim executes one simulated run of horizonNS simulated nanoseconds.
func runSim(w *workloadSpec, seed, horizonNS int64, tr *tracer) (simResult, error) {
	f := core.NewFactory(core.WithLoan())
	if tr != nil {
		f = tracedFactory(f, tr)
	}
	res, err := driver.Run(simConfig(w, seed, sim.Time(horizonNS)), f)
	if err != nil {
		return simResult{}, err
	}
	return simResult{
		Grants:     res.Grants,
		Msgs:       res.Messages.ByKind,
		TotalMsgs:  res.Messages.Total,
		Events:     res.Events,
		Ungranted:  res.Ungranted,
		UseRate:    res.UseRate,
		WaitMeanMS: res.Waiting.Mean,
		WaitP50MS:  res.Waiting.P50,
		WaitP99MS:  res.Waiting.P99,
	}, nil
}

// ---- probes ----

// probeKinds are the message kinds whose codec cost is probed.
var probeKinds = []string{"LASS.Request", "LASS.Response", "Client.Acquire", "Client.Grant"}

// runProbes times single layers in isolation. Each probe is a tight
// loop over one public entry point; the numbers are floors and unit
// costs to read next to the traced spans, not end-to-end claims.
func runProbes() (map[string]float64, error) {
	out := make(map[string]float64)

	// wire: encode/decode per kind, over the registry's own samples.
	samples := make(map[string]network.Message)
	for _, m := range wire.Samples() {
		if _, seen := samples[m.Kind()]; !seen {
			samples[m.Kind()] = m
		}
	}
	for _, kind := range probeKinds {
		m, ok := samples[kind]
		if !ok {
			return nil, fmt.Errorf("probe: wire.Samples() has no %s", kind)
		}
		enc, err := wire.Append(nil, m)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 0, 2*len(enc))
		ns, allocs := probe(func() { buf, _ = wire.Append(buf[:0], m) })
		out["wire.encode_ns."+kind], out["wire.encode_allocs."+kind] = ns, allocs
		var derr error
		ns, allocs = probe(func() {
			if _, err := wire.Decode(enc); err != nil {
				derr = err
			}
		})
		if derr != nil {
			return nil, derr
		}
		out["wire.decode_ns."+kind], out["wire.decode_allocs."+kind] = ns, allocs
	}

	// wire: the coalescing writer, 8 appends per burst into io.Discard.
	payload, err := wire.Append(nil, samples["LASS.Response"])
	if err != nil {
		return nil, err
	}
	co := wire.NewCoalescer(io.Discard, 0, func(error) {})
	ns, _ := probe(func() {
		for i := 0; i < 8; i++ {
			co.Append(payload)
		}
	})
	if err := co.Close(); err != nil {
		return nil, err
	}
	out["wire.coalesce_ns_per_frame"] = ns / 8

	// wire: the frame reader over a pre-built stream of frames.
	const framesPerPass = 256
	var stream []byte
	for i := 0; i < framesPerPass; i++ {
		stream = wire.AppendFrame(stream, payload)
	}
	var ferr error
	ns, _ = probe(func() {
		fr := wire.NewFrameReader(bytes.NewReader(stream), 1<<20)
		for i := 0; i < framesPerPass; i++ {
			if _, err := fr.Next(); err != nil {
				ferr = err
			}
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	out["wire.framereader_ns_per_frame"] = ns / framesPerPass

	// serve: scheduler Push+Pop at depth 64, per policy.
	for _, p := range serve.Policies() {
		s := serve.NewScheduler(p, 0)
		items := make([]serve.Item, 65)
		now := sim.Time(0)
		for i := 0; i < 64; i++ {
			items[i] = serve.Item{Session: uint64(i), Size: 1 + i%4, Deadline: sim.Time(i+1) * sim.Millisecond}
			s.Push(&items[i], now)
		}
		spare := &items[64]
		ns, _ := probe(func() {
			now += sim.Microsecond
			*spare = serve.Item{Session: 64, Size: 2, Deadline: now + sim.Millisecond}
			s.Push(spare, now)
			spare = s.Pop(now)
		})
		out["serve.sched_pushpop_ns."+string(p)] = ns
	}

	// live: uncontended Acquire/Release on a one-node cluster — the
	// floor under every live workload's allocs_per_op.
	c, err := live.New(live.Config{Nodes: 1, Resources: 8}, core.NewFactory(core.WithLoan()))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var aerr error
	ns, allocs := probe(func() {
		rel, err := c.Acquire(ctx, 0, 3)
		if err != nil {
			aerr = err
			return
		}
		rel()
	})
	c.Close()
	if aerr != nil {
		return nil, aerr
	}
	out["live.local_acquire_ns"], out["live.local_acquire_allocs"] = ns, allocs

	// resource: splitting a two-shard set, G = 4.
	sm := resource.NewShardMap(64, 4)
	rs := resource.NewSet(64)
	rs.Add(5)
	rs.Add(40)
	parts := 0
	ns, _ = probe(func() { parts += len(sm.Split(rs)) })
	if parts == 0 {
		return nil, fmt.Errorf("probe: ShardMap.Split returned nothing")
	}
	out["resource.split_ns"] = ns

	// workload: the simulator's request generator at the paper point.
	g := workload.NewGenerator(simConfig(findWorkload("sim_paper"), 1, sim.Time(simHorizonNS)).Workload, 0)
	size := 0
	ns, _ = probe(func() { size += g.Next().Size })
	if size == 0 {
		return nil, fmt.Errorf("probe: workload generator drew nothing")
	}
	out["workload.next_ns"] = ns
	return out, nil
}
