package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// maxClientFrame bounds one client-port frame or batch envelope.
// Client messages are tiny (an acquire names a few resources); the cap
// only keeps a corrupt or hostile length prefix from demanding
// gigabytes.
const maxClientFrame = 1 << 20

// closeFlushTimeout bounds how long a connection teardown waits for
// its coalescing writer to drain queued responses.
const closeFlushTimeout = 2 * time.Second

// handshakeTimeout bounds the wait for a fresh connection's hello: a
// dialer that never speaks must not hold a goroutine and a descriptor
// until Close.
const handshakeTimeout = 5 * time.Second

// DefaultEgressBudget bounds the response bytes queued for every client
// connection. A client that stops reading its responses is shed (its
// connection closed, everything it held handed back) once the queue
// crosses the budget — the client port's half of byte-bounded
// backpressure: where a peer link's writer blocks its senders at its
// byte budget, the client port drops the reader that fell behind.
const DefaultEgressBudget = 4 << 20

// ServerConfig sizes a client-port server.
type ServerConfig struct {
	// Listen is the TCP address of the client port (":0" picks a free
	// port; Addr reports it), unless Listener is set: a port the caller
	// has bound already, which the server then owns.
	Listen   string
	Listener net.Listener
	// Nodes and Resources are the cluster shape, used to validate
	// inbound frames and client requests.
	Nodes, Resources int
	// Shards is the number of resource shards the backing cluster runs
	// (live.Config.Shards), announced in the hello reply so a client
	// can see the namespace layout; 0 means 1, the flat cluster. Client
	// requests are always phrased over the global universe — the backend
	// splits them — so the count is informational to clients, but one
	// that claims a different count in its own hello is rejected.
	Shards int
	// Local lists the node ids this process hosts — the candidates
	// for requests that do not target a node.
	Local []int
	// Open opens a session on a locally hosted node. A connection opens
	// one when a request finds none of the node's sessions idle, runs
	// one request after another on it, and closes it when the
	// connection drops.
	Open func(node int) (BackendSession, error)
	// Overloaded, when non-nil, is the load-aware admission oracle
	// (live.Cluster.Overloaded for an Adaptive-policy cluster): it is
	// consulted per request on the admission fast path, and a true
	// answer sheds the request with DenyOverloaded before it queues.
	// It sees the node's observed service time, so it sheds before the
	// queue passes the knee; without it a node's queue is unbounded. A
	// request that does not target a node is spread past shedding
	// nodes first and denied only when every hosted node sheds it.
	// size is the number of distinct resources the request names.
	Overloaded func(node, size int) bool
	// NoteShed, when non-nil, is told about every oracle denial so the
	// policy's denial-rate statistics see sheds that never reach the
	// node loop (live.Cluster.NoteShed).
	NoteShed func(node int)
}

// Server is one daemon's client port: it accepts connections from
// external processes and serves any number of concurrent acquisition
// requests per connection, each one a session multiplexed onto the
// hosted nodes through the admission scheduler. The peer protocol
// (node to node) never touches this port.
//
// Responses (grants and denies) leave through a coalescing writer per
// connection: a fan-out burst — many sessions granted in one scheduler
// pass — becomes one batch envelope and one write instead of one
// syscall per response. WireStats exposes the egress counters.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	rr atomic.Uint64 // round-robin cursor over cfg.Local

	sessions atomic.Int64   // in-flight client requests, for introspection
	queued   []atomic.Int64 // per-node not-yet-granted requests (QueueLen)

	// egressBudget is DefaultEgressBudget; a test lowers it to reach
	// the shed without queueing megabytes.
	egressBudget int64

	connsMu   sync.Mutex
	conns     map[*conn]bool
	wireAccum wire.CoalescerStats // egress of connections already gone

	// tasks hands a request's blocking acquisition to a parked worker
	// goroutine (see dispatch). Unbuffered on purpose: a send succeeds
	// only into a worker that is waiting for one.
	tasks chan *connReq

	closeMu sync.Mutex
	closed  chan struct{}
	wg      sync.WaitGroup
}

// NewServer opens the client port. The caller owns the backend; Close
// stops accepting and unwinds every in-flight client request, but
// does not close the cluster behind Open.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Nodes < 1 || cfg.Resources < 1 {
		return nil, fmt.Errorf("serve: need ≥1 node and ≥1 resource, got %d/%d", cfg.Nodes, cfg.Resources)
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("serve: no local nodes to serve")
	}
	for _, id := range cfg.Local {
		if id < 0 || id >= cfg.Nodes {
			return nil, fmt.Errorf("serve: local node %d outside [0,%d)", id, cfg.Nodes)
		}
	}
	if cfg.Open == nil {
		return nil, fmt.Errorf("serve: nil Open")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Listen); err != nil {
			return nil, fmt.Errorf("serve: listen %s: %w", cfg.Listen, err)
		}
	}
	s := &Server{
		cfg:          cfg,
		ln:           ln,
		queued:       make([]atomic.Int64, cfg.Nodes),
		egressBudget: DefaultEgressBudget,
		conns:        make(map[*conn]bool),
		tasks:        make(chan *connReq),
		closed:       make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the client port's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Sessions reports how many client requests are currently in flight
// (queued, admitted, or holding a grant).
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// QueueLen reports how many of this port's requests are waiting (not
// yet granted) on node id.
func (s *Server) QueueLen(node int) int64 {
	if node < 0 || node >= len(s.queued) {
		return 0
	}
	return s.queued[node].Load()
}

// WireStats aggregates the egress counters of every client
// connection: writes, flushes, frames, batch envelopes and bytes.
func (s *Server) WireStats() wire.CoalescerStats {
	s.connsMu.Lock()
	total := s.wireAccum
	conns := make([]*conn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.connsMu.Unlock()
	for _, cn := range conns {
		total.Add(cn.co.Stats())
	}
	return total
}

// Close stops the client port: the listener closes, every connection
// drops, and every in-flight request is withdrawn or released exactly
// as if its client had disconnected. Idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	select {
	case <-s.closed:
		s.closeMu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	s.closeMu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(c)
	}
}

// workerIdle is how long a request worker stays parked with nothing to
// run before it retires: long enough to span the gaps inside a burst
// and between a client's consecutive requests, short enough that a
// port gone quiet holds no goroutines.
const workerIdle = time.Second

// dispatch runs the blocking part of one request off the read loop: on a
// parked worker when one is waiting, on a new one otherwise. A goroutine
// per request would start each acquisition on a minimal stack and regrow
// it inside Session.Acquire every time; a worker that has served one
// request keeps the grown stack for the next. The pool sizes itself to
// the number of requests blocked at once.
func (s *Server) dispatch(r *connReq) {
	select {
	case s.tasks <- r:
	default:
		s.wg.Add(1)
		go s.worker(r)
	}
}

// worker runs its first request, then whatever dispatch hands it, until
// it has been idle for workerIdle or the server closes.
func (s *Server) worker(r *connReq) {
	defer s.wg.Done()
	idle := time.NewTimer(workerIdle) // wall: a goroutine pool's idle timeout at the socket edge
	defer idle.Stop()
	for {
		r.run()
		idle.Reset(workerIdle)
		select {
		case r = <-s.tasks:
		case <-idle.C:
			return
		case <-s.closed:
			return
		}
	}
}

// connReq is the server-side record of one client request, and what
// carries one request after another: a connection builds a record (and
// opens its backend session) only when a request finds none idle for
// its node, and keeps it until the connection drops.
//
// A record is in exactly one place: on its node's free list (idle), in
// conn.reqs (admitted: id, opts and the fields below are live), or with
// the one goroutine that just took it out of either. Whoever deletes it
// from conn.reqs ends the request and recycles the record; a
// ClientRelease that arrives afterwards finds no such id and is the
// no-op it always was, whatever the record is doing by then.
//
// The record is also the context.Context its acquisition runs under:
// cancelled when the client withdraws the request or the connection
// drops. Its Done channel is replaced only after an actual cancel.
type connReq struct {
	cn   *conn
	node int
	sess BackendSession
	next *connReq // free list

	id   uint64
	opts AcquireOpts // Resources keeps its storage from request to request

	done     chan struct{}
	canceled atomic.Bool // set under conn.mu; withdrawn before the grant landed, or torn down
	release  func()      // under conn.mu; set once granted
}

func (r *connReq) Deadline() (time.Time, bool) { return time.Time{}, false }
func (r *connReq) Done() <-chan struct{}       { return r.done }
func (r *connReq) Value(any) any               { return nil }

func (r *connReq) Err() error {
	if r.canceled.Load() {
		return context.Canceled
	}
	return nil
}

// cancel ends the record's context; conn.mu held.
func (r *connReq) cancel() {
	if !r.canceled.Swap(true) {
		close(r.done)
	}
}

// conn is one client connection.
type conn struct {
	s  *Server
	c  net.Conn
	co *wire.Coalescer // response egress

	mu   sync.Mutex
	reqs map[uint64]*connReq
	free []*connReq     // by node: idle records, linked through next
	all  []*connReq     // every record built, for teardown (read loop only)
	wg   sync.WaitGroup // admitted requests whose run has not returned

	// distinct's scratch (read loop only): the resources seen, empty
	// between calls, and the ids it returns.
	seen resource.Set
	ids  []int
}

func (s *Server) serve(nc net.Conn) {
	defer s.wg.Done()
	cn := &conn{
		s: s, c: nc, reqs: make(map[uint64]*connReq), free: make([]*connReq, s.cfg.Nodes),
		seen: resource.NewSet(s.cfg.Resources),
	}
	// A write error marks the connection dead; the read loop notices
	// and unwinds.
	cn.co = wire.NewCoalescer(nc, 0, func(error) { nc.Close() })
	s.connsMu.Lock()
	s.conns[cn] = true
	s.connsMu.Unlock()
	done := make(chan struct{})
	defer close(done)
	go func() { // unblock the pending Read when the server closes
		select {
		case <-s.closed:
			nc.Close()
		case <-done:
		}
	}()
	cn.readLoop()
	// The connection is gone: withdraw every pending request and hand
	// back every held grant, so a crashed client strands nothing.
	cn.mu.Lock()
	reqs := cn.reqs
	cn.reqs = nil
	for _, r := range reqs {
		r.cancel()
		if r.release != nil {
			r.release()
			s.sessions.Add(-1)
		}
	}
	cn.mu.Unlock()
	cn.wg.Wait()
	for _, r := range cn.all {
		r.sess.Close()
	}
	// Flush whatever responses are still queued (bounded — the client
	// may be gone), fold the egress counters into the server total,
	// and drop the socket. The bounded close join backstops the write
	// deadline so a wedged client can never hang daemon teardown.
	nc.SetWriteDeadline(time.Now().Add(closeFlushTimeout)) // wall: a socket deadline, which the kernel reads
	cn.co.CloseWithin(2 * closeFlushTimeout)
	s.connsMu.Lock()
	delete(s.conns, cn)
	s.wireAccum.Add(cn.co.Stats())
	s.connsMu.Unlock()
	nc.Close()
}

func (cn *conn) readLoop() {
	// Handshake: the client's hello is answered with this daemon's —
	// protocol version and cluster shape (how a client learns N, M and
	// the shard count without out-of-band config). Writing the reply raw
	// is safe: the hello precedes every request, so the response
	// coalescer has never been touched yet.
	br := bufio.NewReader(cn.c)
	cn.c.SetReadDeadline(time.Now().Add(handshakeTimeout)) // wall: a socket deadline, which the kernel reads
	if wire.AcceptHello(br, cn.c, cn.s.answerHello) != nil {
		return
	}
	cn.c.SetReadDeadline(time.Time{})
	fr := wire.NewFrameReader(br, maxClientFrame)
	var rt roundTrip
	for {
		frame, err := fr.Next()
		if err != nil {
			return
		}
		if rt.parse(frame, cn.s.cfg.Nodes, cn.s.cfg.Resources) != nil {
			return // malformed frame: kill the connection
		}
		switch rt.kind {
		case acquireKind:
			if !cn.handleAcquire(&rt.acquire) {
				return // protocol violation: kill the connection
			}
			if len(rt.acquire.Resources) > cn.s.cfg.Resources {
				// Longer than the universe, so full of repeats: its
				// storage is not kept for the next acquire.
				rt.acquire.Resources = nil
			}
		case releaseKind:
			cn.handleRelease(rt.release.Req)
		default:
			// A client must not send server-side kinds, and one that
			// sends an unknown kind breaks the protocol too: decoded or
			// not, any other frame kills the connection.
			return
		}
	}
}

// answerHello answers a client hello with this daemon's. The protocol
// version must match, and any cluster shape the client claims to know
// must agree (zero means unknown — the usual case, since learning the
// shape is what the reply is for).
func (s *Server) answerHello(peer wire.Hello) (wire.Hello, error) {
	mine := wire.Hello{
		Version:   wire.ProtoVersion,
		Nodes:     s.cfg.Nodes,
		Resources: s.cfg.Resources,
		Shards:    s.cfg.Shards,
	}
	return mine, mine.Check(peer)
}

// handleAcquire validates and registers one client request and hands its
// run — the blocking acquisition and its response — to a worker,
// reporting false when the frame is a protocol violation and the
// connection must die. Requests with bad arguments are merely denied —
// only a reused in-flight request id is fatal: denying it would carry
// the original request's id, which a conforming client must treat as
// that request's outcome, stranding the real grant when it lands.
func (cn *conn) handleAcquire(x *ClientAcquire) bool {
	if len(x.Resources) == 0 {
		cn.deny(x.Req, "empty resource set")
		return true
	}
	for _, res := range x.Resources {
		if res < 0 || res >= int64(cn.s.cfg.Resources) {
			cn.deny(x.Req, "no resource %d", res)
			return true
		}
	}
	ids := cn.distinct(x.Resources)
	size := len(ids)
	node := int(x.Node)
	if x.Node == network.None {
		local := cn.s.cfg.Local
		node = local[cn.s.nextLocal()]
		if ol := cn.s.cfg.Overloaded; ol != nil && ol(node, size) {
			// Spread: one shedding node must not deny what another
			// hosted node could serve — advance the cursor until a node
			// accepts, or every candidate has shed (the check below
			// then denies on the last one).
			for i := 1; i < len(local); i++ {
				node = local[cn.s.nextLocal()]
				if !ol(node, size) {
					break
				}
			}
		}
	} else if !cn.s.hostsLocally(node) {
		cn.deny(x.Req, "node %d is not hosted by this daemon", node)
		return true
	}
	// Load-aware shed: the adaptive bound denies before the queue
	// passes the knee, while the client can still act on it.
	if ol := cn.s.cfg.Overloaded; ol != nil && ol(node, size) {
		if ns := cn.s.cfg.NoteShed; ns != nil {
			ns(node)
		}
		cn.send(ClientDeny{
			Req:    x.Req,
			Reason: fmt.Sprintf("node %d sheds at its adaptive admission bound", node),
			Code:   DenyOverloaded,
		})
		return true
	}
	cn.s.queued[node].Add(1)

	cn.mu.Lock()
	r := cn.free[node]
	if r != nil {
		cn.free[node], r.next = r.next, nil
	}
	cn.mu.Unlock()
	if r == nil {
		sess, err := cn.s.cfg.Open(node)
		if err != nil {
			cn.s.queued[node].Add(-1)
			cn.deny(x.Req, "%v", err)
			return true
		}
		r = &connReq{cn: cn, node: node, sess: sess, done: make(chan struct{})}
		cn.all = append(cn.all, r)
	}
	r.id = x.Req
	// Repeats dropped: the record keeps this storage while its
	// connection lives, so it never holds more than the universe.
	r.opts.Resources = append(r.opts.Resources[:0], ids...)
	r.opts.Deadline = time.Time{}
	if x.DeadlineMS > 0 {
		r.opts.Deadline = time.Now().Add(time.Duration(x.DeadlineMS) * time.Millisecond) // wall: a remote client's deadline, relative to its arrival
	}

	cn.mu.Lock()
	if _, dup := cn.reqs[x.Req]; dup {
		cn.mu.Unlock()
		cn.s.queued[node].Add(-1)
		return false // id reuse while in flight: unrecoverable ambiguity
	}
	cn.reqs[x.Req] = r
	cn.mu.Unlock()
	cn.s.sessions.Add(1)
	cn.wg.Add(1)
	cn.s.dispatch(r)
	return true
}

// distinct returns the ids of rs, which are in range, without repeats
// and in first-occurrence order. The list is the connection's scratch,
// valid until the next call.
func (cn *conn) distinct(rs []int64) []int {
	ids := cn.ids[:0]
	for _, res := range rs {
		if !cn.seen.Has(resource.ID(res)) {
			cn.seen.Add(resource.ID(res))
			ids = append(ids, int(res))
		}
	}
	for _, id := range ids {
		cn.seen.Remove(resource.ID(id))
	}
	cn.ids = ids
	return ids
}

// run performs an admitted request's blocking acquisition and answers
// the client.
func (r *connReq) run() {
	cn := r.cn
	defer cn.wg.Done()
	release, err := r.sess.Acquire(r, r.opts)
	cn.s.queued[r.node].Add(-1) // granted or failed: either way no longer waiting
	id := r.id
	cn.mu.Lock()
	if err == nil && !r.canceled.Load() {
		r.release = release
		cn.mu.Unlock() // the record is handleRelease's from here
		cn.sendGrant(id)
		return
	}
	// Failed, or released (or disconnected) before the grant landed:
	// the request ends here, a grant going straight back.
	canceled := r.canceled.Load()
	delete(cn.reqs, id)
	cn.mu.Unlock()
	cn.s.sessions.Add(-1)
	if err == nil {
		release()
	} else if !canceled {
		cn.deny(id, "%v", err)
	}
	cn.recycle(r)
}

// recycle puts a record whose request has ended — already out of
// conn.reqs, its grant released — back on its node's free list.
func (cn *conn) recycle(r *connReq) {
	r.release = nil
	if r.canceled.Load() {
		r.done = make(chan struct{})
		r.canceled.Store(false)
	}
	cn.mu.Lock()
	r.next, cn.free[r.node] = cn.free[r.node], r
	cn.mu.Unlock()
}

func (cn *conn) handleRelease(req uint64) {
	cn.mu.Lock()
	r, ok := cn.reqs[req]
	if !ok {
		cn.mu.Unlock()
		return // unknown or already finished: releases are idempotent
	}
	if r.release == nil {
		// Not granted yet: withdraw. The acquire goroutine unwinds it.
		r.cancel()
		cn.mu.Unlock()
		return
	}
	delete(cn.reqs, req)
	cn.mu.Unlock()
	r.release()
	cn.s.sessions.Add(-1)
	cn.recycle(r)
}

// deny answers request req with a generic denial.
func (cn *conn) deny(req uint64, format string, args ...any) {
	cn.send(ClientDeny{Req: req, Reason: fmt.Sprintf(format, args...)})
}

// send queues one response frame on the connection's coalescing
// writer; concurrent grant fan-outs coalesce into batch envelopes.
// The frame is encoded straight into an owned pooled buffer the
// writer writes from and releases — no copy between encode and flush.
func (cn *conn) send(m network.Message) {
	if cn.shed() {
		return
	}
	frame, err := wire.Append(wire.GetFrame(128)[:wire.FrameDataOff], m)
	if err != nil {
		panic(fmt.Sprintf("serve: encoding own message: %v", err))
	}
	cn.co.AppendOwned(frame, wire.FinishFrame(frame))
}

// sendGrant is send(ClientGrant{Req: req}) without building the message.
func (cn *conn) sendGrant(req uint64) {
	if cn.shed() {
		return
	}
	frame := appendGrant(wire.GetFrame(128)[:wire.FrameDataOff], req)
	cn.co.AppendOwned(frame, wire.FinishFrame(frame))
}

// shed reports whether the client has stopped draining responses: it
// is shed, not queued for without bound. Once the egress backlog
// crosses the budget the connection is closed, which unwinds the read
// loop and hands every grant back — the same outcome as the client
// crashing.
func (cn *conn) shed() bool {
	if cn.co.QueuedBytes() > cn.s.egressBudget {
		cn.c.Close()
		return true
	}
	return false
}

// nextLocal advances the round-robin cursor and returns its index into
// cfg.Local. The modulo is taken unsigned: converted to int first, the
// counter turns negative once it passes MaxInt (2³¹ requests on a
// 32-bit build) and the index with it.
func (s *Server) nextLocal() int {
	return int(s.rr.Add(1) % uint64(len(s.cfg.Local)))
}

func (s *Server) hostsLocally(node int) bool {
	for _, id := range s.cfg.Local {
		if id == node {
			return true
		}
	}
	return false
}
