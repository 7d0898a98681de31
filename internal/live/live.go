// Package live runs multi-resource allocation nodes as real concurrent
// processes: one runner goroutine per shard, a transport.Transport as
// the message fabric. The same alg.Node state machines that run under the
// deterministic simulation run here unchanged, which is both a strong
// test (the race detector sees real interleavings) and the basis of the
// public lock-manager API (package mralloc).
//
// The transport decides the deployment shape. With no transport every
// node lives in this process and messages never leave it; with a TCP
// transport (internal/transport) a cluster spans OS processes, each
// hosting the subset of nodes named by Config.Local, and messages cross
// the wire through the internal/wire codec. The protocol cannot tell
// the difference — the transport contract (reliable FIFO per ordered
// pair, see internal/transport) is exactly the paper's hypotheses 1–3.
//
// Each shard has one runner: a goroutine that serializes the protocol
// activations of every site this process hosts in that shard — per site
// exactly the atomicity the algorithms assume; separate runners keep
// the shards parallel. A cluster with no Transport and no latency has no
// fabric at all: every message is between two sites of one runner, and
// Send appends it to a queue the runner handles in the same drain.
// Under a fabric Send hands the message to the transport at once, one
// message per call; a message between two co-hosted sites then lands in
// the runner's own mailbox, with no goroutine woken. Both queues are
// unbounded so that no cycle of full queues can deadlock the token
// exchange.
//
// Send is also where the cluster counts its messages, by kind, before
// routing them (Cluster.Stats): what the protocol sent, once each,
// whatever fabric or wrappers carry it.
//
// Above the protocol sits the serve layer (internal/serve): a node's
// single request slot (hypothesis 4) is fed by an admission scheduler,
// so any number of concurrent Sessions can multiplex onto one node.
// Sessions enqueue Acquires with deadlines and cancellation; the node's
// loop admits them one at a time under the configured policy, with aging
// guaranteeing starvation freedom.
package live

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// ErrClosed is returned by Acquire (outstanding or queued) and
// NewSession once the cluster has been closed. Callers distinguish it
// from context errors with errors.Is.
var ErrClosed = errors.New("live: cluster closed")

// Config sizes a live cluster.
type Config struct {
	Nodes     int
	Resources int
	// Latency, when positive, delays every message delivery through an
	// in-process transport.Mem the cluster builds (FIFO per link is
	// preserved). It cannot be combined with a custom Transport, and a
	// negative value is an error. The delay is a Clock.Sleep, on the wall
	// clock a time.Sleep, which an idle Linux process rounds up to whole
	// milliseconds: 200µs is about 1.1 ms per hop (transport.Mem). At
	// zero with no Transport the cluster builds no fabric and a message
	// never leaves its shard's runner (see the package comment).
	Latency time.Duration
	// Transport, when non-nil, carries the cluster's messages; the
	// cluster takes ownership and closes it on Close. Nil keeps every
	// message in this process, which requires every node to be local.
	Transport transport.Transport
	// Local lists the node ids hosted by this process, exactly the ones
	// a supplied Transport's endpoint hosts. Nil or empty means all of
	// them (the single-process configuration). Remote nodes are
	// reachable through the transport but cannot be driven by this
	// cluster's sessions or inspected.
	Local []int
	// Policy selects the admission ordering of each node's scheduler
	// (serve.FIFO when empty); Aging is the starvation-freedom
	// threshold (serve.DefaultAging when zero).
	Policy serve.Policy
	Aging  time.Duration
	// AdmitTarget is the grant-latency target the Adaptive policy
	// tunes its admission bound and ordering mode toward
	// (serve.DefaultAdmitTarget when zero; ignored by fixed policies).
	AdmitTarget time.Duration
	// Shards, when above 1, splits the resource universe into that many
	// contiguous shards (resource.ShardMap), each running its own
	// allocator instances and runner: single-shard acquires from
	// different shards proceed fully in parallel on every node. Every
	// transport carries any shard count, wrapped (Reliable, Chaos) or
	// not — a shard is one field of the link a message is sent on;
	// every process of a multi-process cluster must configure the same
	// count. 0 or 1 selects the flat single-universe cluster: the
	// one-shard instance of the same code path, whose frames carry no
	// shard tag.
	Shards int
	// CrossShardTwoPhase switches acquires spanning several shards from
	// ordered locking (shards taken one at a time in ascending shard
	// order, which every session shares, so no cycle of holders can
	// form) to a two-phase scheme: every shard is requested in
	// parallel and, when the full set cannot be assembled before the
	// attempt times out, everything is handed back and the acquire
	// retries after a jittered backoff. Two-phase trades the ordered
	// walk's serial latency for retry work under contention; the bench
	// measures both.
	CrossShardTwoPhase bool
	// Tick, when positive, drives time-based protocol machinery: every
	// local node implementing alg.Ticker gets a Tick on its shard's runner
	// at this period. Required for token leases (core Options.LeaseTTL —
	// pick a period a few times smaller than the heartbeat interval).
	Tick time.Duration
	// Wire tunes the wire path of a socket fabric: delta-encoded token
	// state, and the cluster configuration its hello carries. It
	// reaches the fabric through any wrappers, in the one
	// transport.Config the cluster announces once every node has
	// attached, before the fabric carries any traffic, so it covers every
	// connection the cluster dials or accepts; fabrics without a wire
	// path (Mem) ignore it.
	Wire transport.WireOptions
	// Clock is where the cluster and, through the transport.Config that
	// carries Wire, its fabric read the time and arm their timers. Nil is
	// sim.Wall().
	Clock sim.Clock
}

// Cluster is a set of running protocol nodes — all of them in the
// single-process configuration, this process's share of them in a
// multi-process deployment.
type Cluster struct {
	cfg Config
	// tr carries the cluster's messages; nil when there is no fabric
	// (no Transport, no Latency), and sends then queue on the sender's
	// runner (loop.Send).
	tr    transport.Transport
	stats kindStats         // every message the local sites sent, by kind
	smap  resource.ShardMap // global↔(shard, local) resource mapping; 1 shard when flat
	// loops[s][id] is node id's site in shard s; nil for nodes hosted
	// elsewhere. runners[s] runs every local site of shard s. The flat
	// configuration is exactly one shard.
	loops   [][]*loop
	runners []*runner

	sessMu  sync.Mutex
	sessSeq uint64 // session id allocator
	// spare[node] holds the ephemeral sessions Cluster.Acquire is not
	// using right now; it grows to the most acquires ever held at once
	// on the node and is filled on first use.
	spare [][]*Session

	closed  chan struct{}
	closeMu sync.Mutex
	wg      sync.WaitGroup // the shard runners and the Config.Tick driver
}

// New builds and starts a cluster running the given algorithm. The
// factory builds all Nodes state machines; only the local ones are
// attached and driven, so every process of a multi-process cluster
// calls New with the same factory and a disjoint Local set.
func New(cfg Config, factory alg.Factory) (*Cluster, error) {
	// The cluster owns cfg.Transport from this call on: every error
	// path must close it, or a rejected configuration leaks the
	// listener and its goroutines.
	fail := func(format string, args ...any) (*Cluster, error) {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, fmt.Errorf("live: "+format, args...)
	}
	if cfg.Nodes < 1 || cfg.Resources < 1 {
		return fail("need ≥1 node and ≥1 resource, got %d/%d", cfg.Nodes, cfg.Resources)
	}
	if cfg.Latency < 0 {
		return fail("negative Latency %v", cfg.Latency)
	}
	g := cfg.Shards
	if g <= 0 {
		g = 1
	}
	if g > cfg.Resources {
		return fail("%d shards over %d resources (every shard needs ≥1)", g, cfg.Resources)
	}
	if _, err := serve.ParsePolicy(string(cfg.Policy)); err != nil {
		return fail("%v", err)
	}
	local := cfg.Local
	if len(local) == 0 {
		local = make([]int, cfg.Nodes)
		for i := range local {
			local[i] = i
		}
	}
	seen := make(map[int]bool, len(local))
	for _, id := range local {
		if id < 0 || id >= cfg.Nodes {
			return fail("local node %d outside [0,%d)", id, cfg.Nodes)
		}
		if seen[id] {
			return fail("local node %d listed twice", id)
		}
		seen[id] = true
	}
	tr := cfg.Transport
	if tr == nil {
		if len(local) != cfg.Nodes {
			return fail("hosting %d of %d nodes needs a transport (the in-process fabric cannot reach the rest)", len(local), cfg.Nodes)
		}
		if cfg.Latency > 0 {
			tr = transport.NewMem(cfg.Nodes, cfg.Latency)
		}
	} else {
		if cfg.Latency > 0 {
			return fail("Latency applies only to the built-in transport")
		}
		if tr.N() != cfg.Nodes {
			return fail("transport spans %d nodes, cluster has %d", tr.N(), cfg.Nodes)
		}
		// The endpoint delivers to every node it hosts, so Local names
		// exactly those.
		for id := 0; id < cfg.Nodes; id++ {
			switch hosted := tr.Hosts(network.NodeID(id)); {
			case seen[id] && !hosted:
				return fail("local node %d is not hosted by the transport endpoint", id)
			case hosted && !seen[id]:
				return fail("node %d is hosted by the transport endpoint but not local", id)
			}
		}
	}
	smap := resource.NewShardMap(cfg.Resources, g)
	cfg.Clock = cmp.Or(cfg.Clock, sim.Wall())
	// One allocator fleet per shard, each over its shard's local
	// universe. The flat cluster is the one-shard instance of the same
	// construction: Size(0) == Resources, so the factory call is exactly
	// the pre-shard one.
	nodesByShard := make([][]alg.Node, g)
	for s := 0; s < g; s++ {
		nodesByShard[s] = factory(cfg.Nodes, smap.Size(s))
		if len(nodesByShard[s]) != cfg.Nodes {
			if tr != nil {
				tr.Close()
			}
			return nil, fmt.Errorf("live: factory built %d nodes, want %d", len(nodesByShard[s]), cfg.Nodes)
		}
	}
	c := &Cluster{
		cfg:    cfg,
		tr:     tr,
		smap:   smap,
		spare:  make([][]*Session, cfg.Nodes),
		closed: make(chan struct{}),
	}
	c.loops = make([][]*loop, g)
	c.runners = make([]*runner, g)
	for s := 0; s < g; s++ {
		r := &runner{}
		r.mb.nonEmpty.L = &r.mb.mu
		c.runners[s] = r
		c.loops[s] = make([]*loop, cfg.Nodes)
		for _, id := range local {
			l := newLoop(c, r, network.NodeID(id), nodesByShard[s][id], s)
			c.loops[s][id] = l
			l.node.Attach(l)
		}
	}
	// Traffic starts here, once every site is attached: a message that
	// arrives before its runner starts waits in the runner's mailbox.
	if tr != nil {
		sizes := make([]int, g)
		for s := range sizes {
			sizes[s] = smap.Size(s)
		}
		tr.Configure(transport.Config{Shards: sizes, Wire: cfg.Wire, Clock: cfg.Clock},
			func(k transport.Link, m network.Message) {
				l := c.loops[k.Shard][k.To]
				l.r.mb.put(mbItem{l: l, from: k.From, msg: m})
			})
	}
	for _, r := range c.runners {
		c.wg.Add(1)
		go func() { defer c.wg.Done(); r.run() }()
	}
	if cfg.Tick > 0 {
		c.wg.Add(1)
		go c.runTicker(local, cfg.Clock.NewTimer(cfg.Tick))
	}
	return c, nil
}

// runTicker posts a cmdTick to every local loop each Config.Tick, so
// timed protocol machinery advances as an activation on the shard's
// runner, and re-arms tick once they are posted. It exits when the
// cluster closes.
func (c *Cluster) runTicker(local []int, tick sim.Timer) {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			tick.Stop()
			return
		case <-tick.C:
			for _, shard := range c.loops {
				for _, id := range local {
					shard[id].post(cmdTick{})
				}
			}
			tick.Reset(c.cfg.Tick)
		}
	}
}

// Drain asks every local node implementing alg.Drainer to hand off the
// resource tokens it owns, and waits until the handoffs have left the
// loops — the orderly half of a shutdown, called before Close so a
// restarting peer does not have to wait out a lease expiry. It reports
// false when the cluster closed before every drain completed.
func (c *Cluster) Drain() bool {
	ok := true
	var dones []chan struct{}
	for _, shard := range c.loops {
		for _, l := range shard {
			if l != nil {
				done := make(chan struct{})
				l.post(cmdDrain{done: done}) // refused only once closed, which the wait sees
				dones = append(dones, done)
			}
		}
	}
	for _, done := range dones {
		select {
		case <-done:
		case <-c.closed:
			ok = false
		}
	}
	return ok
}

// N reports the number of nodes in the whole cluster.
func (c *Cluster) N() int { return c.cfg.Nodes }

// M reports the number of resources.
func (c *Cluster) M() int { return c.cfg.Resources }

// Shards reports the number of resource shards (1 for a flat cluster).
func (c *Cluster) Shards() int { return c.smap.Shards() }

// ShardLayout returns the cluster's global↔(shard, local) resource
// mapping — the one-shard identity mapping for a flat cluster.
func (c *Cluster) ShardLayout() resource.ShardMap { return c.smap }

// Local reports whether node id is hosted by this cluster instance.
func (c *Cluster) Local(id int) bool {
	return id >= 0 && id < c.cfg.Nodes && c.loops[0][id] != nil
}

// now is the cluster clock (Config.Clock), in the simulation's unit,
// which the serve scheduler's deadlines and aging use.
func (c *Cluster) now() sim.Time { return c.cfg.Clock.Now() }

// Stats snapshots the cluster's per-kind message counters: every
// message a local site sent, counted once where it was sent (loop.Send),
// whatever fabric or wrappers carried it — a retransmission, a chaos
// duplicate or a reliability envelope is never a protocol message. In a
// multi-process cluster each process counts its own sites' sends;
// summing over processes gives the cluster total.
func (c *Cluster) Stats() map[string]int64 { return c.stats.snapshot() }

// Inspect runs fn against node id's shard-0 protocol state on the
// shard's runner, so fn sees a quiesced snapshot without data races (the
// whole protocol state of a flat cluster). On a closed cluster fn runs
// on the caller's goroutine against the stopped node, once Close has
// returned. It reports false, and fn does not run, when the node is not
// local. No local site of the shard takes a step while fn runs, so fn
// must not block on other cluster operations: waiting on another local
// node of the same shard — an Acquire, a release, an Inspect —
// deadlocks.
func (c *Cluster) Inspect(id int, fn func(alg.Node)) bool {
	return c.InspectShard(0, id, fn)
}

// InspectShard is Inspect against one shard's allocator instance at
// node id.
func (c *Cluster) InspectShard(shard, id int, fn func(alg.Node)) bool {
	if shard < 0 || shard >= len(c.loops) || !c.Local(id) {
		return false
	}
	l := c.loops[shard][id]
	done := make(chan struct{})
	if l.post(cmdInspect{fn: fn, done: done}) {
		select {
		case <-done:
			return true
		case <-c.closed:
		}
	}
	// Closed: Close holds closeMu until the runners have exited, so fn
	// either ran on the runner before it stopped or runs here.
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	select {
	case <-done:
	default:
		fn(l.node)
	}
	return true
}

// QueueLen reports how many admission requests are queued (not yet fed
// into the protocol) at node id, summed over its shards, for tests and
// load introspection. It reports 0 for non-local nodes.
func (c *Cluster) QueueLen(id int) int {
	total := 0
	for s, shard := range c.loops {
		c.InspectShard(s, id, func(alg.Node) { total += shard[id].sched.Len() })
	}
	return total
}

// Overloaded asks node id's Adaptive admission bound whether an
// arrival of the given size should be shed rather than queued. It
// reads the scheduler's atomically published load snapshot — no trip
// through the node loop — so it is cheap enough for a server's
// admission fast path. Always false for fixed policies and non-local
// nodes; the caller records an actual denial with NoteShed.
func (c *Cluster) Overloaded(id, size int) bool {
	if !c.Local(id) {
		return false
	}
	// Any shard saturating is an overload: a cross-shard acquire cannot
	// complete faster than its slowest shard.
	for _, shard := range c.loops {
		if shard[id].sched.Overloaded(size) {
			return true
		}
	}
	return false
}

// NoteShed records an overload denial against node id's load
// statistics (feeding the Adaptive policy's denial-rate EWMA). Safe
// from any goroutine; a no-op for fixed policies and non-local nodes.
func (c *Cluster) NoteShed(id int) {
	if c.Local(id) {
		for _, shard := range c.loops {
			shard[id].sched.NoteShed()
		}
	}
}

// NodeLoad returns node id's shard-0 admission-load snapshot (the
// whole load of a flat cluster; the zero Load for fixed policies and
// non-local nodes). Safe from any goroutine.
func (c *Cluster) NodeLoad(id int) serve.Load {
	if !c.Local(id) {
		return serve.Load{}
	}
	return c.loops[0][id].sched.Load()
}

// Close stops every shard's runner and closes the transport, if any, then
// waits for the runners to exit: closing the transport first releases a
// runner blocked in a Send. Every outstanding or queued Acquire fails
// promptly with ErrClosed. Close is idempotent.
func (c *Cluster) Close() {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	for _, r := range c.runners {
		r.mb.close()
	}
	if c.tr != nil {
		c.tr.Close()
	}
	c.wg.Wait()
}

// loop is one site of one shard: the state its runner applies the
// site's activations to, one at a time. Above the protocol it owns the
// node's admission scheduler: at most one ticket is fed into the state
// machine at a time (hypothesis 4); the rest queue under the policy.
//
// On a cluster with no fabric (Cluster.tr nil) a protocol send is an
// append to the runner's local queue; otherwise it is one transport
// Send, made at once. The loop keeps no egress buffer:
// the protocol already sends one message per destination per
// activation, and the socket fabric's coalescing writer gathers a
// drain's sends into one write.
type loop struct {
	c     *Cluster
	r     *runner
	id    network.NodeID
	shard int
	node  alg.Node

	sched    *serve.Scheduler
	inflight *ticket // admitted into the state machine; nil when idle
}

// runner is one shard's event loop: a single goroutine that applies the
// activations of every local site of the shard, one at a time, drawn
// from one mailbox whose items name their site and, with no fabric,
// from the local queue of messages its sites sent one another. A Send
// that blocks (a TCP peer stalled at its byte budget) holds up all of
// those sites.
type runner struct {
	mb mailbox // messages and commands for the shard's local sites
	// local holds the messages between the shard's sites sent during
	// this drain (no fabric only), handled before the drain ends;
	// draining routes such a send made outside a drain to the mailbox
	// instead. woke: the drain readied a waiter.
	local    []mbItem
	draining bool
	woke     bool
}

// mbItem is one mailbox entry, for site l. A delivered message — the hot
// path — rides unboxed (cmd nil): no interface allocation per hop.
type mbItem struct {
	l    *loop
	from network.NodeID
	msg  network.Message
	cmd  any
}

// mailbox is the runner's unbounded multi-producer queue, drained in
// batches: one wakeup takes every queued item, and an item the runner
// queues for itself (a message between two of its sites that went
// through a fabric) costs no wakeup at all. Unbounded, it keeps
// send-cycles (token exchanges) from deadlocking on a full queue.
type mailbox struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // 1-to-1 with the consumer; signaled on empty→non-empty
	queue    []mbItem
	closed   bool
}

// put enqueues an item, reporting false once the mailbox is closed.
func (mb *mailbox) put(v mbItem) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	mb.queue = append(mb.queue, v)
	if len(mb.queue) == 1 {
		// Only an empty→non-empty edge can find the consumer parked.
		mb.nonEmpty.Signal()
	}
	mb.mu.Unlock()
	return true
}

// takeAll blocks until items are queued or the mailbox closes, then
// takes the whole queue in one swap, leaving spare (reset) behind as
// the next accumulation buffer. ok is false once closed and drained.
func (mb *mailbox) takeAll(spare []mbItem) (batch []mbItem, ok bool) {
	mb.mu.Lock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.nonEmpty.Wait()
	}
	batch = mb.queue
	mb.queue = spare[:0]
	mb.mu.Unlock()
	return batch, len(batch) > 0
}

// close marks the mailbox closed and wakes the consumer. Idempotent;
// items queued before close are still delivered by the next takeAll.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.nonEmpty.Broadcast()
}

// The ticket commands are one pointer each, so they ride the mailbox's
// cmd field without boxing: everything else a command needs (the set,
// the reply channels) lives in the ticket.

// cmdSubmit enqueues a ticket into the node's admission scheduler.
type cmdSubmit struct{ t *ticket }

// cmdCancel withdraws a ticket on behalf of a caller whose context
// ended. The loop always answers on t.done: true when the ticket goes
// back to its session — removed from the queue while still queued, or
// released on the spot because the grant had already landed — and false
// when it was in flight, which the protocol cannot abandon: the loop
// keeps such a ticket and gives its grant straight back on arrival.
type cmdCancel struct{ t *ticket }

// cmdRelease ends the critical section of a granted ticket; the loop
// answers on t.done.
type cmdRelease struct{ t *ticket }

// cmdReap is the loop's note to itself: an abandoned ticket was
// granted, so release it and admit the next — as a fresh activation,
// never recursively from inside the Granted callback (the state
// machines assume Release is a separate activation).
type cmdReap struct{ t *ticket }

type cmdInspect struct {
	fn   func(alg.Node)
	done chan struct{}
}

// cmdTick is a clock edge from the Config.Tick driver; the loop passes
// it to the node's alg.Ticker face, if any.
type cmdTick struct{}

// cmdDrain asks the node to hand off its resource tokens (alg.Drainer)
// ahead of an orderly shutdown. The loop always closes done.
type cmdDrain struct {
	done chan struct{}
}

func newLoop(c *Cluster, r *runner, id network.NodeID, node alg.Node, shard int) *loop {
	l := &loop{
		c:     c,
		r:     r,
		id:    id,
		shard: shard,
		node:  node,
		sched: serve.NewScheduler(c.cfg.Policy, sim.Time(c.cfg.Aging)),
	}
	if c.cfg.AdmitTarget > 0 {
		l.sched.SetTarget(sim.Time(c.cfg.AdmitTarget))
	}
	return l
}

// post enqueues a control command for the site, reporting false once
// the runner is stopping.
func (l *loop) post(v any) bool {
	return l.r.mb.put(mbItem{l: l, cmd: v})
}

// run is the shard's event loop goroutine. One drain takes a mailbox
// batch — every item that queued up while the previous drain ran, for
// any local site of the shard — under a single wakeup, then the local
// queue until it is empty (a delivery may add to it). A link's
// messages all take the same queue, so each link stays FIFO. It exits
// when the mailbox closes; the sessions waiting on its tickets watch
// the cluster's closed channel themselves, so no Acquire outlives it.
func (r *runner) run() {
	var spare []mbItem
	for {
		batch, ok := r.mb.takeAll(spare)
		if !ok {
			return
		}
		r.draining = true
		for i := range batch {
			v := batch[i]
			batch[i] = mbItem{} // drop references as soon as handled
			v.l.handle(v)
		}
		for i := 0; i < len(r.local); i++ {
			v := r.local[i]
			r.local[i] = mbItem{}
			v.l.handle(v)
		}
		r.local = r.local[:0]
		r.draining = false
		spare = batch
		if r.woke {
			// The sessions this drain woke run before the next one:
			// else runnext hands the P back and forth between the runner
			// and the last-woken session, which finds its tokens still
			// local while the others starve (TestRunnerNoMonopoly).
			r.woke = false
			runtime.Gosched()
		}
	}
}

// handle applies one mailbox item to the site: a delivered message, or
// a command.
func (l *loop) handle(v mbItem) {
	if v.cmd == nil {
		l.node.Deliver(v.from, v.msg)
		return
	}
	switch x := v.cmd.(type) {
	case cmdSubmit:
		l.sched.Push(&x.t.item, l.c.now())
		l.maybeAdmit()
	case cmdCancel:
		back := l.cancel(x.t)
		l.wake()
		x.t.done <- back
	case cmdRelease:
		l.release(x.t)
		l.wake()
		x.t.done <- true
	case cmdReap:
		l.release(x.t)
	case cmdInspect:
		l.wake()
		x.fn(l.node)
		close(x.done)
	case cmdTick:
		if tk, ok := l.node.(alg.Ticker); ok {
			tk.Tick(l.c.now())
		}
	case cmdDrain:
		if dr, ok := l.node.(alg.Drainer); ok {
			dr.Drain()
		}
		l.wake()
		close(x.done)
	}
}

// wake notes that the drain readies a waiter, so the runner yields
// after it.
func (l *loop) wake() { l.r.woke = true }

// Send counts m, then routes it: with no fabric it queues m for to's
// site on this runner — on the local queue during a drain, else in the
// mailbox; otherwise it hands m to the transport.
func (l *loop) Send(to network.NodeID, m network.Message) {
	l.c.stats.count(m)
	if l.c.tr == nil {
		v := mbItem{l: l.c.loops[l.shard][to], from: l.id, msg: m}
		if l.r.draining {
			l.r.local = append(l.r.local, v)
		} else {
			l.r.mb.put(v)
		}
		return
	}
	l.c.tr.Send(transport.Link{Shard: l.shard, From: l.id, To: to}, m)
}

// maybeAdmit feeds the scheduler's next pick into the protocol when
// the node's single request slot is free.
func (l *loop) maybeAdmit() {
	if l.inflight != nil {
		return
	}
	it := l.sched.Pop(l.c.now())
	if it == nil {
		return
	}
	t := it.V.(*ticket)
	l.inflight = t
	t.admitted = l.c.now()
	l.node.Request(t.rs)
}

// release ends t's critical section and admits the next request. A
// release of a ticket that is not in its critical section is a no-op.
func (l *loop) release(t *ticket) {
	if l.inflight != t || !t.inCS {
		return
	}
	t.inCS = false
	l.sched.ObserveService(l.c.now() - t.admitted)
	l.node.Release()
	l.inflight = nil
	l.maybeAdmit()
}

// cancel withdraws t after its caller's context ended, reporting
// whether the ticket goes back to its session (see cmdCancel).
func (l *loop) cancel(t *ticket) bool {
	switch {
	case l.sched.Remove(&t.item):
		// Still queued: never admitted, nothing to unwind.
	case l.inflight == t && !t.inCS:
		// In flight: the protocol cannot abandon a request — mark it
		// so the grant is given straight back on arrival. The ticket is
		// the loop's from here on.
		t.abandoned = true
		return false
	default:
		// Granted, caller didn't take it: give the resources back now.
		l.release(t)
	}
	return true
}

// Granted runs on the shard's runner: the node just entered its CS.
func (l *loop) Granted() {
	t := l.inflight
	if t == nil {
		panic(fmt.Sprintf("live: node %d granted without a pending request", l.id))
	}
	t.inCS = true
	if t.abandoned {
		// The caller is gone; release as a fresh activation (the state
		// machines assume Granted has returned before Release runs).
		l.post(cmdReap{t: t})
		return
	}
	l.wake()
	t.granted <- struct{}{}
}

// The loop is its site's alg.Env.

func (l *loop) ID() network.NodeID { return l.id }
func (l *loop) N() int             { return l.c.cfg.Nodes }

// M is the node's resource universe: its shard's local universe, which
// is the whole global universe on a flat cluster.
func (l *loop) M() int { return l.c.smap.Size(l.shard) }

func (l *loop) Now() sim.Time { return l.c.now() }
