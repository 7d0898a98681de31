// Package transport abstracts the communication substrate of a live
// cluster (internal/live) behind one small contract, so the same
// alg.Node state machines run over in-process channels or real sockets
// without change.
//
// There is one way to send: Send(Link{Shard, From, To}, m) hands the
// fabric one message for one link. A link is an ordered node pair
// inside one resource shard; a flat cluster is the one-shard instance,
// and shard 0 is an ordinary value. Every fabric and every wrapper
// implements exactly that method, and every guarantee below holds per
// link — which is why the wrappers compose in any order at any shard
// count: their sequence spaces, fault decisions and FIFO queues are
// keyed by the whole Link, so nothing about shards is special-cased
// anywhere. Batching is not the caller's business: the protocol
// already merges what one activation sends to one destination into one
// message, and the socket fabric's coalescing writer (wire.Coalescer)
// gathers whatever Sends queued up since its last write into one.
//
// A Transport connects the N nodes of one cluster. Implementations
// must provide the guarantees the algorithms assume (the paper's
// hypotheses 1–3), which are exactly what the conformance suite in
// transporttest asserts, per link:
//
//   - reliability: while the transport is open, every sent message is
//     eventually delivered to the destination's handler;
//   - FIFO per link: messages of one link are delivered in send order
//     (no ordering is promised across links — which is exactly what
//     lets shards proceed in parallel);
//   - no duplication: each sent message is delivered exactly once;
//   - clean close: Close is idempotent, terminates the transport's
//     goroutines, and later Sends are dropped rather than panicking.
//
// Counting messages is not a transport's business: the sender counts
// what the protocol sent (live's loop.Send), once per message, so no
// fabric or wrapper here keeps a per-kind counter, and what a wrapper
// adds on the way down (an envelope, an ack, a retransmission, a chaos
// duplicate) is never a protocol message.
//
// A sent message belongs to its receiver (alg.Env.Send): the in-process
// paths deliver it by reference and the receiving node may scrub and
// refill it as soon as its handler has run. Nothing on an in-process
// path reads a message it carries — a delay queue, the binder's backlog
// of an unbound slot, a fault pipeline's item and the reliable
// wrapper's retransmit buffer hold it unread — and an envelope that may
// point at a delivered message (a duplicate, a retransmission) is
// discarded on its sequence number alone. A socket path encodes a
// message once and releases it (wire.Release), so the decoder at the
// other end may refill its storage; a wrapper that sends one twice (a
// chaos duplicate) sends a copy (wire.Copy). An envelope registers no
// release func, so a retransmission re-encodes the message it wraps.
//
// Wrappers stack as live → Reliable → Chaos → TCP|Mem. Each forwards
// Configure and AbortConns to the fabric underneath, so a caller holds
// the top of the stack and never reaches around it.
//
// Handlers may be invoked concurrently for different senders and must
// not block for long — the live runtime's handlers only append to an
// unbounded per-runner mailbox, and custom transports should assume no
// more than that.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mralloc/internal/network"
)

// Handler consumes a message delivered to a locally hosted node.
type Handler func(from network.NodeID, m network.Message)

// Link addresses one FIFO channel of the fabric: the ordered pair
// From→To inside resource shard Shard. Each shard is its own token
// universe with its own allocator instances, so links of different
// shards are independent channels even between the same two nodes.
type Link struct {
	Shard    int
	From, To network.NodeID
}

// Config is what a cluster announces to its fabric, once, before the
// first Bind or Send.
type Config struct {
	// Shards lists the local resource-universe size of every shard; a
	// flat cluster is the one-shard instance {M}. A socket fabric
	// validates inbound shard-s frames against Shards[s] and announces
	// a count above one in its hello. Empty leaves the endpoint one
	// shard of unknown size (frames are then checked against the node
	// count alone).
	Shards []int
	// Wire tunes the egress wire path of a socket fabric; fabrics
	// without one ignore it.
	Wire WireOptions
	// LossRecovered marks broken socket writes as recoverable. The
	// Reliable wrapper sets it on the way down: everything lost with a
	// dead connection is retransmitted after the redial, so a failed
	// write is part of normal recovery, not a silently dropped frame.
	LossRecovered bool
}

// Transport is one process's endpoint of a cluster's message fabric.
// An in-process cluster hosts all N nodes on one endpoint; a
// multi-process cluster hosts a subset on each.
type Transport interface {
	// N reports the cluster size the transport connects.
	N() int
	// Hosts reports whether node id is hosted by this endpoint —
	// i.e. whether Bind(shard, id, ...) is legal here.
	Hosts(id network.NodeID) bool
	// Configure announces the cluster's shard layout and wire options.
	// An endpoint never configured is a flat one with default options.
	Configure(Config)
	// Bind installs the delivery handler of a locally hosted node in
	// one shard. Messages arriving before their Bind are buffered and
	// delivered, in order, when the handler is installed.
	Bind(shard int, id network.NodeID, h Handler)
	// Send transmits m on link l, whose From is locally hosted. Send
	// may block briefly (backpressure) but must not block indefinitely
	// while the transport is open; after Close it is a no-op.
	Send(l Link, m network.Message)
	// AbortConns forcibly closes every live connection of the fabric,
	// as a peer crash or a cut cable would, and reports how many died
	// (always zero on a fabric without connections). Frames queued or
	// in flight on a killed connection are lost; the next Send redials.
	AbortConns() int
	// Close tears the endpoint down. Idempotent.
	Close() error
}

// WireOptions tunes the wire path of a socket transport. The zero
// value selects the default.
type WireOptions struct {
	// Delta enables delta-encoded token state (the hello's
	// wire.FeatDelta bit): a link ships token deltas instead of full snapshots when both of its
	// ends enable it, and full snapshots otherwise.
	Delta bool
}

// binder maps the locally hosted (shard, node) slots to their handlers
// and buffers deliveries that race ahead of Bind: a peer process may
// legitimately start sending before this process has attached its
// nodes, and a reliable transport must not drop those messages.
// Per-slot locking keeps delivery FIFO per destination without
// serializing the whole endpoint. Shard 0 exists from construction;
// grow adds the rest when the cluster announces its layout.
type binder struct {
	n      int
	shards atomic.Pointer[[][]binderSlot] // [shard][node]
}

type binderSlot struct {
	mu      sync.Mutex
	h       Handler
	pending []pendingMsg
}

type pendingMsg struct {
	from network.NodeID
	m    network.Message
}

func newBinder(n int) *binder {
	b := &binder{n: n}
	b.grow(1)
	return b
}

// grow extends the table to g shards. Existing shards keep their slots
// (handlers and buffered traffic included); the table never shrinks.
// Only the goroutine assembling the stack grows it (constructors and
// Configure); deliveries read it concurrently, hence the atomic swap.
func (b *binder) grow(g int) {
	var cur [][]binderSlot
	if p := b.shards.Load(); p != nil {
		cur = *p
	}
	if g <= len(cur) {
		return
	}
	next := append([][]binderSlot(nil), cur...)
	for len(next) < g {
		next = append(next, make([]binderSlot, b.n))
	}
	b.shards.Store(&next)
}

// slot resolves one (shard, node) slot, or nil for a shard the endpoint
// was never configured for.
func (b *binder) slot(shard int, id network.NodeID) *binderSlot {
	shards := *b.shards.Load()
	if shard < 0 || shard >= len(shards) {
		return nil
	}
	return &shards[shard][id]
}

// mustSlot is slot for the local call sites (Bind, Send), where an
// unknown shard is a wiring bug, not a runtime condition.
func (b *binder) mustSlot(shard int, id network.NodeID) *binderSlot {
	s := b.slot(shard, id)
	if s == nil {
		panic(fmt.Sprintf("transport: shard %d on an endpoint with %d shards", shard, len(*b.shards.Load())))
	}
	return s
}

func (s *binderSlot) bind(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
	for _, p := range s.pending {
		h(p.from, p.m)
	}
	s.pending = nil
}

// deliver hands one message to the slot's handler, or buffers it until
// Bind. The slot lock is held across the handler call, so that a
// concurrent bind cannot reorder a buffered prefix after a direct
// delivery.
func (s *binderSlot) deliver(from network.NodeID, m network.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.h == nil {
		s.pending = append(s.pending, pendingMsg{from, m})
		return
	}
	s.h(from, m)
}

// checkDest panics on a destination outside the cluster — a wiring bug
// on the sending side, never input from a peer.
func checkDest(n int, to network.NodeID) {
	if to < 0 || int(to) >= n {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
}
