package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/wire"
)

// maxFrame bounds one wire frame or batch envelope. Real protocol
// messages are a few KB at most (a token carries two N-sized stamp
// vectors), and the coalescing writer splits envelopes at
// wire.MaxEnvelope, well below this; the cap only keeps a corrupt or
// hostile length prefix from demanding gigabytes.
const maxFrame = 1 << 24

// dialWindow is how long, on the endpoint's clock, a Send retries
// dialing a peer that is not up yet (every 50 ms), which absorbs
// multi-process startup races on loopback. A peer that outlasts it is
// down: each later Send to it dials once, without retrying, until a
// dial succeeds again.
const dialWindow = 10 * time.Second

// closeFlushTimeout bounds how long Close waits for each connection's
// coalescing writer to drain frames queued before the close.
const closeFlushTimeout = 2 * time.Second

// DefaultBudget bounds the bytes queued inside one connection's
// coalescing writer. It is always armed: a peer that stops reading
// costs this much sender memory and blocked Sends, never an OOM.
const DefaultBudget = 16 << 20

// handshakeTimeout bounds either end's wait for the other's hello: a
// listener that never answers (not configured yet, or stalled) costs
// one dial attempt, retried within the dial window rather than hanging
// it, and a dialer that never speaks must not hold the acceptor's
// goroutine and descriptor until Close.
const handshakeTimeout = 5 * time.Second

// TCP is the socket transport: one endpoint per process, hosting a
// subset of the cluster's nodes, every message encoded by internal/wire
// and framed with a length prefix plus sender/receiver identifiers.
//
// Topology: each endpoint listens on one address; Connect supplies the
// address of every node's host process. Connections are dialed lazily,
// one per ordered pair of processes, and all traffic from this process
// to one peer shares that connection — which is what makes FIFO per
// ordered node pair hold: a sending node's messages enter the
// connection in send order, and the receiver drains frames
// sequentially.
//
// Egress is coalesced: a Send encodes its frame into a pooled buffer
// and appends it to the connection's coalescing writer
// (wire.Coalescer); a dedicated flusher per connection drains
// everything queued since its last wakeup into one write — one frame
// alone travels as a single frame, a backlog travels as one batch
// envelope. One write syscall then carries a whole burst
// instead of one message, without adding latency when there is no
// burst. WireStats exposes the write/frame/batch counters.
//
// Sends to a node hosted by this same endpoint short-circuit through
// memory without touching the codec.
type TCP struct {
	n     int
	local map[network.NodeID]bool
	ln    net.Listener

	// Configure sets these once, before it starts accepting and before
	// any Send. cfg.Shards is never empty: a Config without a layout is
	// one shard of unknown size (zero — the codec then checks site ids
	// alone), and resources, the global universe M announced in the
	// hello, is then zero. cfg.Clock is never nil.
	cfg       Config
	resources int
	deliver   Handler

	peersMu sync.RWMutex
	peers   []string // per node; nil until Connect

	connMu sync.Mutex
	conns  map[string]*outConn
	// down holds the peers whose dial window ran out; a Send to one
	// dials once instead of retrying (conn).
	down map[string]bool

	wireMu    sync.Mutex
	wireAccum wire.CoalescerStats // stats of retired connections

	// ctx ends when the endpoint closes, cutting short a dial in flight;
	// closed is its Done channel.
	ctx     context.Context
	stop    context.CancelFunc
	closed  <-chan struct{}
	closeMu sync.Mutex
	wg      sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// outConn is one dialed connection plus its coalescing writer.
type outConn struct {
	c  net.Conn
	co *wire.Coalescer
	// strms are the egress codec contexts, one per configured shard (delta
	// caches are keyed by resource id, and shard-local ids collide across
	// shards); all nil unless the hellos negotiated delta.
	strms  []*wire.Stream
	broken atomic.Bool // write failed; next Send to this peer redials
	// peer is the hello the acceptor answered with, set before the
	// connection is registered and read-only after, so no lock guards it.
	peer wire.Hello
	// retired marks the stats folded into wireAccum; guarded by the
	// endpoint's wireMu so a snapshot can never miss or double-count a
	// connection retiring concurrently.
	retired bool
}

// ListenTCP opens an endpoint for a cluster of n nodes, hosting the
// given local node ids (all ids when none are given). The address may
// use port 0; Addr reports the bound address to hand to peers. The
// endpoint accepts peers only once Configure has run; call Connect
// before the first Send.
func ListenTCP(addr string, n int, local ...int) (*TCP, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need ≥1 node, got %d", n)
	}
	loc := make(map[network.NodeID]bool, len(local))
	if len(local) == 0 {
		for i := 0; i < n; i++ {
			loc[network.NodeID(i)] = true
		}
	}
	for _, id := range local {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("transport: local node %d outside [0,%d)", id, n)
		}
		loc[network.NodeID(id)] = true
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, stop := context.WithCancel(context.Background())
	return &TCP{
		n:      n,
		local:  loc,
		ln:     ln,
		conns:  make(map[string]*outConn),
		down:   make(map[string]bool),
		ctx:    ctx,
		stop:   stop,
		closed: ctx.Done(),
	}, nil
}

// Addr reports the endpoint's bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Connect supplies the address of every node's host process (addrs[i]
// hosts node i). Local nodes may carry any placeholder — they are
// delivered in memory.
func (t *TCP) Connect(addrs []string) error {
	if len(addrs) != t.n {
		return fmt.Errorf("transport: got %d peer addresses for %d nodes", len(addrs), t.n)
	}
	t.peersMu.Lock()
	t.peers = append([]string(nil), addrs...)
	t.peersMu.Unlock()
	return nil
}

// N implements Transport.
func (t *TCP) N() int { return t.n }

// Hosts implements Transport.
func (t *TCP) Hosts(id network.NodeID) bool { return t.local[id] }

// Configure implements Transport and starts accepting: inbound frames
// must carry resource ids within their shard's universe (site ids are
// checked against the listen-time n regardless), the hello announces the
// layout, the wire features and the cluster configuration, and peers
// claiming a different shard count or configuration are rejected.
func (t *TCP) Configure(cfg Config, deliver Handler) {
	configure(&t.deliver, deliver)
	cfg.Shards = append([]int(nil), cfg.Shards...)
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{0}
	}
	cfg.Clock = cfg.clock()
	t.cfg = cfg
	for _, sz := range cfg.Shards {
		t.resources += sz
	}
	t.wg.Add(1)
	go t.acceptLoop()
}

// localHello assembles the hello this endpoint sends (dial side) or
// answers with (accept side): protocol version, cluster shape, the
// locally enabled feature set and the cluster configuration.
func (t *TCP) localHello() wire.Hello {
	var feat uint64
	if t.cfg.Wire.Delta {
		feat |= wire.FeatDelta
	}
	return wire.Hello{
		Version:   wire.ProtoVersion,
		Nodes:     t.n,
		Resources: t.resources,
		Features:  feat,
		Shards:    len(t.cfg.Shards),
		Cluster:   t.cfg.Wire.Cluster,
	}
}

// Negotiated reports the hello received from the peer at addr, if a
// connection to it is currently open — the test hook for asserting what
// a differently configured pair agreed on.
func (t *TCP) Negotiated(addr string) (wire.Hello, bool) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	oc, ok := t.conns[addr]
	if !ok {
		return wire.Hello{}, false
	}
	return oc.peer, true
}

// deltaOn reports whether a link whose ends sent these hellos carries
// token state as deltas: both must have advertised it.
func deltaOn(mine, peer wire.Hello) bool {
	return mine.Features&peer.Features&wire.FeatDelta != 0
}

// Send implements Transport: m is encoded into the connection's
// coalescing writer (no syscall until the flusher wakes) and released
// to its codec (wire.Release), or handed to the handler of a local node,
// which keeps it. Shard-0 frames are byte for byte the flat
// single-universe encoding; shards above ride a shard tag ahead of the
// unchanged frame header (wire.AppendShardTag).
func (t *TCP) Send(l Link, m network.Message) {
	checkLink(t.deliver, t.n, len(t.cfg.Shards), l)
	select {
	case <-t.closed:
		return
	default:
	}
	if t.local[l.To] {
		t.deliver(l, m)
		return
	}
	oc := t.connFor(l.To)
	if oc == nil {
		return // closed or unreachable; error recorded
	}
	// Owned-frame egress: the frame is encoded once, into a pooled
	// buffer the coalescing writer writes from directly and releases
	// after the flush — no copy between encode and syscall.
	buf := wire.GetFrame(256)[:wire.FrameDataOff]
	buf = wire.AppendShardTag(buf, l.Shard)
	buf = binary.AppendVarint(buf, int64(l.From))
	buf = binary.AppendVarint(buf, int64(l.To))
	frame, err := wire.AppendStream(buf, m, oc.strms[l.Shard])
	if err != nil {
		wire.ReleaseFrame(frame)
		t.fail(err)
		return
	}
	// The frame is all that crosses: the sender gave m away and nothing
	// reads it again, so its codec may refill it in a later decode.
	wire.Release(m)
	// A false return is a broken connection, its error recorded by
	// writeFailed.
	oc.co.AppendOwned(frame, wire.FinishFrame(frame))
}

// connFor resolves the outbound connection for a destination node.
func (t *TCP) connFor(to network.NodeID) *outConn {
	t.peersMu.RLock()
	peers := t.peers
	t.peersMu.RUnlock()
	if peers == nil {
		t.fail(fmt.Errorf("transport: Send before Connect"))
		return nil
	}
	return t.conn(peers[to])
}

// conn returns the (dialed) connection to addr, dialing with retries
// until the dial window has passed on the endpoint's clock, so that
// peers still starting up are absorbed: a refused dial and a handshake
// that times out against a silent acceptor (a peer bound but not
// configured yet) are both retried. A rejected or garbled hello reply
// is final. The window runs once per outage: a peer that outlasted it
// is marked down, and a Send to it makes one dial attempt and no more
// until one succeeds. Every wait in the retry loop — the dial itself,
// the handshake, the backoff — observes Close, so a Send blocked behind
// a dead peer unwinds the moment the transport shuts down instead of
// riding out the window.
func (t *TCP) conn(addr string) *outConn {
	t.connMu.Lock()
	oc, ok := t.conns[addr]
	down := t.down[addr]
	t.connMu.Unlock()
	if ok && !oc.broken.Load() {
		return oc
	}
	clk := t.cfg.Clock
	giveUp := clk.Now()
	if !down {
		giveUp += sim.Time(dialWindow)
	}
	for {
		c, err := t.dialOnce(addr)
		if err == nil {
			mine := t.localHello()
			var peer wire.Hello
			if peer, err = t.dialHandshake(c, mine); err == nil {
				return t.register(addr, c, mine, peer)
			}
			c.Close()
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				select {
				case <-t.closed: // a handshake cut short by Close is not a failure
				default:
					t.fail(err)
				}
				return nil
			}
		}
		if clk.Now() >= giveUp {
			select {
			case <-t.closed:
			default:
				t.connMu.Lock()
				t.down[addr] = true
				t.connMu.Unlock()
				t.fail(fmt.Errorf("transport: dial %s: %w", addr, err))
			}
			return nil
		}
		backoff := clk.NewTimer(50 * time.Millisecond)
		select {
		case <-t.closed:
			backoff.Stop()
			return nil
		case <-backoff.C:
		}
	}
}

// register makes a freshly dialed and negotiated connection the one to
// addr and returns it, unless Close ran meanwhile or a concurrent dial
// got there first.
func (t *TCP) register(addr string, c net.Conn, mine, peer wire.Hello) *outConn {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	select {
	case <-t.closed:
		// Close ran while the dial was in flight and has already swept
		// t.conns; registering now would leak the socket.
		c.Close()
		return nil
	default:
	}
	if existing, ok := t.conns[addr]; ok && !existing.broken.Load() {
		c.Close() // lost a dial race; use the winner
		return existing
	}
	// No usable connection — either none, or a broken one still awaiting
	// its writeFailed sweep; the fresh one replaces it (dropConn deletes
	// by identity, so the sweep cannot evict this registration).
	oc := t.newOutConn(c, mine, peer)
	t.conns[addr] = oc
	delete(t.down, addr)
	return oc
}

// dialOnce is one bounded dial attempt that aborts when the transport
// closes.
func (t *TCP) dialOnce(addr string) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(t.ctx, time.Second) // wall: bounds one connect, which the kernel times
	defer cancel()
	var d net.Dialer
	return d.DialContext(dctx, "tcp", addr)
}

// dialHandshake runs the dial side of connection negotiation: send our
// hello, wait (bounded) for the peer's hello or rejection. The hello
// reply is the last thing the acceptor ever writes on the connection.
func (t *TCP) dialHandshake(c net.Conn, mine wire.Hello) (wire.Hello, error) {
	// The handshake deadline caps a silent peer, but a transport
	// shutting down must not ride it out: closing the socket unblocks
	// the exchange the moment Close runs.
	stop := context.AfterFunc(t.ctx, func() { c.Close() })
	defer stop()
	c.SetDeadline(time.Now().Add(handshakeTimeout)) // wall: a socket deadline, which the kernel reads
	defer c.SetDeadline(time.Time{})
	hello := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, mine))
	if _, err := c.Write(hello); err != nil {
		return wire.Hello{}, fmt.Errorf("transport: hello to %s: %w", c.RemoteAddr(), err)
	}
	peer, err := wire.ReadHelloReply(bufio.NewReader(c), mine)
	if err != nil {
		return wire.Hello{}, fmt.Errorf("transport: peer %s: %w", c.RemoteAddr(), err)
	}
	return peer, nil
}

// newOutConn builds the coalescing writer for a freshly dialed
// connection and, where the two hellos negotiated delta, the encoder's
// shadow caches.
func (t *TCP) newOutConn(c net.Conn, mine, peer wire.Hello) *outConn {
	oc := &outConn{c: c, peer: peer, strms: make([]*wire.Stream, mine.Shards)}
	oc.co = wire.NewCoalescer(c, 0, func(err error) {
		t.writeFailed(oc, err)
	})
	if deltaOn(mine, peer) {
		for s := range oc.strms {
			oc.strms[s] = wire.NewStream()
		}
	}
	// The one flow-control rule of a peer link: a stalled peer costs
	// bounded memory and blocked Sends, never an OOM.
	oc.co.SetByteBudget(DefaultBudget)
	return oc
}

// AbortConns forcibly closes every currently dialed connection's
// socket without marking it broken — exactly what a peer crash or a
// cut cable does. The flusher's next write fails, which runs the
// broken-flag redial path: frames queued or in flight on the killed
// connection are lost, and the next Send to that peer dials fresh
// (new handshake, new per-connection codec state). Reports how many
// connections were killed. Implements Transport; the chaos wrapper's
// kill schedule lands here.
func (t *TCP) AbortConns() int {
	t.connMu.Lock()
	conns := make([]*outConn, 0, len(t.conns))
	for _, oc := range t.conns {
		conns = append(conns, oc)
	}
	t.connMu.Unlock()
	for _, oc := range conns {
		oc.c.Close()
	}
	return len(conns)
}

// writeFailed runs on a connection's flusher goroutine when a write
// errors: the connection is dropped so the next Send to that peer
// redials, and the failure is recorded unless the transport is closing
// or a reliability layer above recovers lost frames
// (Config.LossRecovered): what died with the connection is then
// retransmitted after the redial, neither silent nor lost. Dial
// failures and corrupt inbound frames still count — the layer above
// cannot recover those.
func (t *TCP) writeFailed(oc *outConn, err error) {
	if !oc.broken.CompareAndSwap(false, true) {
		return
	}
	t.dropConn(oc)
	if t.cfg.LossRecovered {
		return
	}
	select {
	case <-t.closed:
	default:
		t.fail(fmt.Errorf("transport: write to %s: %w", oc.c.RemoteAddr(), err))
	}
}

// dropConn removes a broken connection so the next Send redials, and
// folds its egress counters into the endpoint total.
func (t *TCP) dropConn(oc *outConn) {
	oc.c.Close()
	t.connMu.Lock()
	for addr, c := range t.conns {
		if c == oc {
			delete(t.conns, addr)
		}
	}
	t.connMu.Unlock()
	t.retire(oc)
}

// retire folds a connection's egress stats into the endpoint
// accumulator exactly once.
func (t *TCP) retire(oc *outConn) {
	st := oc.co.Stats()
	t.wireMu.Lock()
	if !oc.retired {
		oc.retired = true
		t.wireAccum.Add(st)
	}
	t.wireMu.Unlock()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.fail(fmt.Errorf("transport: accept: %w", err))
			}
			return
		}
		t.wg.Add(1)
		go t.serve(c)
	}
}

// serve drains one inbound connection, decoding frames sequentially —
// which is exactly what preserves per-link FIFO on the receive side.
// The frame reader is batch-aware: envelope boundaries are invisible,
// frames arrive in stream order either way.
func (t *TCP) serve(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	// Unblock the pending Read when the transport closes.
	stop := context.AfterFunc(t.ctx, func() { c.Close() })
	defer stop()
	// The hello reply is the only thing this side ever writes.
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(handshakeTimeout)) // wall: a socket deadline, which the kernel reads
	mine, peer, err := wire.AcceptHello(br, c, func(peer wire.Hello) (wire.Hello, error) {
		mine := t.localHello()
		return mine, mine.Check(peer)
	})
	if err != nil {
		t.connErr(c, err)
		return
	}
	c.SetReadDeadline(time.Time{})
	fr := wire.NewFrameReader(br, maxFrame)
	// The ingress codec contexts, by shard: stateful codecs keep their
	// per-connection caches in them. All nil on a link that did not
	// negotiate delta.
	strms := make([]*wire.Stream, len(t.cfg.Shards))
	if deltaOn(mine, peer) {
		for s := range strms {
			strms[s] = wire.NewStream()
		}
	}
	for {
		frame, err := fr.Next()
		if err != nil {
			t.connErr(c, err)
			return
		}
		d := wire.NewDecFor(frame, t.n, t.resources)
		shard := d.ShardTag()
		from := d.Site()
		to := d.Site()
		if d.Err() != nil {
			t.connErr(c, d.Err())
			return
		}
		// Every frame validates against its shard's local universe (shard
		// 0 included — its universe is Shards[0], not the announced global
		// M); a tagged frame on a flat endpoint is a peer speaking a
		// protocol this side was not configured for.
		if shard >= len(t.cfg.Shards) {
			t.connErr(c, fmt.Errorf("frame for shard %d, endpoint has %d shards", shard, len(t.cfg.Shards)))
			return
		}
		if !t.local[to] {
			t.connErr(c, fmt.Errorf("frame for node %d, not hosted here", to))
			return
		}
		m, err := wire.DecodeStream(d.Rest(), t.n, t.cfg.Shards[shard], strms[shard])
		if err != nil {
			t.connErr(c, err)
			return
		}
		t.deliver(Link{Shard: shard, From: from, To: to}, m)
	}
}

// connErr records an inbound connection failure unless it is a normal
// shutdown (transport closed, or the peer simply closed its side).
func (t *TCP) connErr(c net.Conn, err error) {
	select {
	case <-t.closed:
		return
	default:
	}
	if errors.Is(err, io.EOF) {
		return
	}
	t.fail(fmt.Errorf("transport: conn from %s: %w", c.RemoteAddr(), err))
}

// fail records the first asynchronous transport error and announces it
// on stderr — a dropped frame in a token protocol surfaces as a silent
// hang, so the cause must be visible somewhere even when nobody polls
// Err.
func (t *TCP) fail(err error) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
		fmt.Fprintln(os.Stderr, "mralloc/transport:", err)
	}
	t.errMu.Unlock()
}

// Err reports the first asynchronous transport error observed (dial
// failure past the retry window, broken write, corrupt inbound frame),
// or nil. Also returned by Close.
func (t *TCP) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}

// WireStats aggregates the egress counters of every connection this
// endpoint has dialed: writes (the syscall proxy), flushes, frames,
// batch envelopes and bytes. Holding wireMu across the accumulator read
// and the live summation makes each connection count exactly once —
// either in wireAccum (retired) or live — even while retire runs
// concurrently, so successive snapshots are monotonic.
func (t *TCP) WireStats() wire.CoalescerStats {
	t.connMu.Lock()
	conns := make([]*outConn, 0, len(t.conns))
	for _, oc := range t.conns {
		conns = append(conns, oc)
	}
	t.connMu.Unlock()
	t.wireMu.Lock()
	defer t.wireMu.Unlock()
	total := t.wireAccum
	for _, oc := range conns {
		if !oc.retired {
			total.Add(oc.co.Stats())
		}
	}
	return total
}

// Close implements Transport. It reports the first asynchronous
// transport error observed during the endpoint's lifetime, if any.
func (t *TCP) Close() error {
	t.closeMu.Lock()
	select {
	case <-t.closed:
		t.closeMu.Unlock()
	default:
		t.stop()
		t.closeMu.Unlock()
		t.ln.Close()
		t.connMu.Lock()
		conns := make([]*outConn, 0, len(t.conns))
		for addr, oc := range t.conns {
			conns = append(conns, oc)
			delete(t.conns, addr)
		}
		t.connMu.Unlock()
		for _, oc := range conns {
			// Flush what was queued before the close, but bound the
			// attempt twice over: the write deadline unwinds a flusher
			// blocked mid-Write, and the bounded close join covers
			// writers that ignore deadlines (wrapped conns) — Close must
			// never hang behind a stuck peer.
			oc.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout)) // wall: a socket deadline, which the kernel reads
			oc.co.CloseWithin(2 * closeFlushTimeout)
			oc.c.Close()
			t.retire(oc)
		}
		t.wg.Wait()
	}
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}
