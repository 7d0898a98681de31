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
// path reads a message it carries — a delay queue, a fault pipeline's
// item and the reliable wrapper's retransmit buffer hold it unread —
// and an envelope that may point at a delivered message (a duplicate, a
// retransmission) is discarded on its sequence number alone. A socket
// path encodes a message once and releases it (wire.Release), so the
// decoder at the other end may refill its storage; a wrapper that sends
// one twice (a chaos duplicate) sends a copy (wire.Copy). An envelope
// registers no release func, so a retransmission re-encodes the message
// it wraps.
//
// An endpoint has one lifecycle: construct, Connect (a socket fabric),
// one Configure, then traffic, then Close. Configure is the single
// announcement that starts traffic: it carries the shard layout and the
// delivery handler, so nothing reaches an endpoint before it knows
// both. A socket endpoint accepts peers only from Configure on; a peer
// dialing in earlier keeps retrying (each handshake times out after
// 5 s against the silent endpoint) until it does, for as long as its
// 10 s dial window lasts. Configuring twice, or sending before
// Configure, is a wiring bug and panics.
//
// Wrappers stack as live → Reliable → Chaos → TCP|Mem. Each forwards
// Configure and AbortConns to the fabric underneath, so a caller holds
// the top of the stack and never reaches around it.
//
// The handler may be invoked from several goroutines at once, must not
// block for long and must not send on the link it is handed a message
// from — the live runtime's only appends to an unbounded per-runner
// mailbox, and custom transports should assume no more than that.
package transport

import (
	"cmp"
	"fmt"

	"mralloc/internal/network"
	"mralloc/internal/sim"
)

// Handler consumes a message delivered on link l, whose To is a locally
// hosted node.
type Handler func(l Link, m network.Message)

// Link addresses one FIFO channel of the fabric: the ordered pair
// From→To inside resource shard Shard. Each shard is its own token
// universe with its own allocator instances, so links of different
// shards are independent channels even between the same two nodes.
type Link struct {
	Shard    int
	From, To network.NodeID
}

// Config is what a cluster announces to its fabric, once, before the
// first Send.
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
	// Clock is what every fabric and wrapper reads the time from and
	// arms its timers on; socket I/O deadlines stay on the wall clock,
	// which the kernel reads. Nil is sim.Wall().
	Clock sim.Clock
}

// clock is the announced Clock, sim.Wall() when there is none.
func (cfg Config) clock() sim.Clock { return cmp.Or(cfg.Clock, sim.Wall()) }

// Transport is one process's endpoint of a cluster's message fabric.
// An in-process cluster hosts all N nodes on one endpoint; a
// multi-process cluster hosts a subset on each.
type Transport interface {
	// N reports the cluster size the transport connects.
	N() int
	// Hosts reports whether node id is hosted by this endpoint —
	// i.e. whether links to id deliver here.
	Hosts(id network.NodeID) bool
	// Configure announces the cluster's shard layout and wire options
	// and installs the handler every message to a hosted node is
	// delivered to; traffic starts here. It is called exactly once,
	// before the first Send.
	Configure(cfg Config, deliver Handler)
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
	// wire.FeatDelta bit): every link ships token deltas instead of full
	// snapshots. It is cluster-wide: a peer that differs is refused at
	// the handshake.
	Delta bool
	// Cluster is the cluster-wide configuration the hello carries
	// (wire.Hello.Cluster): a peer that sends a different one is
	// refused at the handshake. internal/stack renders it.
	Cluster string
}

// configure is the wiring check of every Configure: deliver is required
// and becomes *dst, which must not be set yet.
func configure(dst *Handler, deliver Handler) {
	if deliver == nil {
		panic("transport: Configure without a handler")
	}
	if *dst != nil {
		panic("transport: Configure called twice")
	}
	*dst = deliver
}

// checkLink panics on a Send that is a wiring bug on the sending side,
// never input from a peer: one before Configure installed the handler,
// to a node outside the cluster, or on a shard outside the layout.
func checkLink(deliver Handler, n, shards int, l Link) {
	if deliver == nil {
		panic("transport: Send before Configure")
	}
	if l.To < 0 || int(l.To) >= n {
		panic(fmt.Sprintf("transport: send to invalid node %d", l.To))
	}
	if l.Shard < 0 || l.Shard >= shards {
		panic(fmt.Sprintf("transport: send on shard %d of an endpoint with %d shards", l.Shard, shards))
	}
}
