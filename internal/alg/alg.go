// Package alg defines the service-provider interface every
// multi-resource allocation algorithm in this repository implements.
//
// An algorithm instance is one Node per site. Nodes are message-driven
// state machines, and there are two runtimes. internal/explore's World
// is the deterministic one: the simulator (internal/driver) lets time
// choose its next step, an exhaustive search or a test chooses it by
// hand, and one Env, one in-flight store and one message count serve
// them all. internal/live is the other: one runner goroutine per shard
// steps every node it hosts. Either calls Request/Release/Deliver, and
// the node calls back through its Env to send messages and to announce
// that the critical section has been entered. A node never blocks;
// "waiting" is simply the state between Request and the Granted
// callback.
package alg

import (
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// Env is the runtime context a node acts through. Implementations must
// deliver Send reliably and in FIFO order per ordered pair of nodes
// (hypotheses 1–3 of the paper).
type Env interface {
	// ID is this node's site identifier (0..N-1).
	ID() network.NodeID
	// N is the number of sites.
	N() int
	// M is the number of resources.
	M() int
	// Now is the current (virtual or wall-clock) time.
	Now() sim.Time
	// Send transmits m to another site and gives it away for good: the
	// message belongs to whoever Deliver hands it to, so the sender must
	// not touch, resend or reuse m (or storage m points into) after the
	// call. A runtime may hold m for as long as it likes — in a delay
	// queue, for retransmission — but delivers it at most once, and
	// never reads a message it has already delivered. A socket path
	// encodes m once and releases it to its codec (wire.Release), which
	// may refill m's storage in a later decode; a runtime that hands one
	// message to two readers hands one of them a copy.
	Send(to network.NodeID, m network.Message)
	// Granted tells the runtime the node has entered its critical
	// section: it holds exclusive access to every requested resource.
	// It may be invoked synchronously from within Request or Deliver.
	Granted()
}

// Node is one site of a multi-resource allocation protocol.
//
// The runtime guarantees the paper's hypothesis 4: Request is never
// called while a previous request is unsatisfied or its critical
// section unreleased, so at most N requests are pending system-wide.
type Node interface {
	// Attach binds the node to its environment. Called exactly once,
	// before any other method.
	Attach(env Env)
	// Request asks for exclusive access to every resource in rs
	// (rs must be non-empty). The node must not mutate rs, which stays
	// valid until the Release that ends this request returns: a caller
	// may refill it for the site's next request (workload.Generator
	// does), so a node that keeps it longer keeps a copy.
	Request(rs resource.Set)
	// Release ends the critical section entered at the last Granted.
	Release()
	// Deliver hands the node a protocol message from another site. The
	// receiver keeps the record: m is the node's from here on, to scrub
	// and refill for a message of its own (internal/core does), and the
	// runtime must not look at it after the call. Nodes run serialized,
	// so that reuse needs no lock.
	Deliver(from network.NodeID, m network.Message)
}

// Ticker is an optional Node face. A runtime with a clock calls Tick
// periodically (from the same serialized context as Deliver) so
// time-based machinery — leases, heartbeats, expiry scans — can run.
// Nodes without timed state simply do not implement it.
type Ticker interface {
	Tick(now sim.Time)
}

// Drainer is an optional Node face: an orderly shutdown calls Drain
// (same serialized context as Deliver) to let the node hand off state
// that would otherwise die with it, e.g. resource tokens it owns.
type Drainer interface {
	Drain()
}

// Factory builds the N nodes of one protocol instance for a system of
// n sites and m resources. Implementations may return nodes that share
// internal state only if the algorithm is explicitly centralized (the
// shared-memory comparator); distributed algorithms must keep all
// shared protocol state inside tokens and messages.
type Factory func(n, m int) []Node
