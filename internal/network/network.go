// Package network simulates the communication substrate assumed by the
// paper (§3.1): a complete graph of reliable FIFO point-to-point links
// between N nodes, with a configurable latency model γ. It also counts
// traffic per message kind, which the evaluation harness reports as the
// synchronization cost of each algorithm.
package network

import (
	"fmt"
	"math/rand"
	"sort"

	"mralloc/internal/sim"
)

// NodeID identifies one process/site. Sites are densely numbered 0..N-1
// and totally ordered by < (the paper's relation ≺, used to break ties
// between request marks).
type NodeID int

// None is the nil site (the paper's "nil" father pointer / lender).
const None NodeID = -1

// Message is any protocol payload. Kind labels the message class for
// statistics ("ReqBatch", "Token", "Inquire", ...); it must be constant
// per concrete type.
type Message interface {
	Kind() string
}

// Handler consumes a delivered message on the destination node.
type Handler func(from NodeID, m Message)

// Network delivers messages between n nodes over the simulation engine.
type Network struct {
	eng *sim.Engine
	lat LatencyModel
	rng *rand.Rand

	handlers []Handler
	// lastArrival enforces FIFO per ordered pair under jittered latency:
	// a message never arrives before one sent earlier on the same link.
	lastArrival []sim.Time
	n           int

	// proc is the per-message service time at the receiving process;
	// busyUntil serializes deliveries per destination. A zero proc
	// models an infinitely fast receiver — under which a token that
	// every request must traverse (a global lock) never queues, hiding
	// precisely the synchronization cost the paper measures.
	proc      sim.Time
	busyUntil []sim.Time

	// kinds counts traffic per message kind, in first-seen order. A run
	// sends a handful of kinds, so a scan with a string compare beats
	// hashing the kind of every message into a map; Stats builds the map.
	kinds []kindCount
	total int64

	// free pools delivery records so that a send schedules its delivery
	// without allocating a fresh closure per message.
	free []*delivery
}

// delivery is one in-flight message. Its run closure is bound once at
// record creation and reused for every message the record carries.
type delivery struct {
	nw       *Network
	from, to NodeID
	m        Message
	run      func()
}

func (nw *Network) getDelivery() *delivery {
	if n := len(nw.free); n > 0 {
		d := nw.free[n-1]
		nw.free[n-1] = nil
		nw.free = nw.free[:n-1]
		return d
	}
	d := &delivery{nw: nw}
	d.run = d.deliver
	return d
}

// deliver hands the message to the destination handler. The record is
// released first: handlers send follow-up messages, and reusing this
// record keeps the pool at its high-water mark.
func (d *delivery) deliver() {
	nw, from, to, m := d.nw, d.from, d.to, d.m
	d.m = nil
	nw.free = append(nw.free, d)
	h := nw.handlers[to]
	if h == nil {
		panic(fmt.Sprintf("network: node %d has no handler", to))
	}
	h(from, m)
}

// New creates a network of n nodes over eng. The latency model may be
// stochastic; rng drives it deterministically.
func New(eng *sim.Engine, n int, lat LatencyModel, rng *rand.Rand) *Network {
	if n <= 0 {
		panic("network: need at least one node")
	}
	return &Network{
		eng:         eng,
		lat:         lat,
		rng:         rng,
		handlers:    make([]Handler, n),
		lastArrival: make([]sim.Time, n*n),
		busyUntil:   make([]sim.Time, n),
		n:           n,
	}
}

// SetProcessingDelay sets the per-message service time at receivers.
// Deliveries to one node are serialized: a message is handled when the
// node finishes the previous one, plus the service time.
func (nw *Network) SetProcessingDelay(d sim.Time) {
	if d < 0 {
		panic("network: negative processing delay")
	}
	nw.proc = d
}

// Bind installs the delivery handler for node id. Every node must be
// bound before the first send to it is delivered.
func (nw *Network) Bind(id NodeID, h Handler) {
	nw.handlers[id] = h
}

// Send schedules delivery of m from one node to another. Sending to
// yourself is a protocol bug in every algorithm here, so it panics
// rather than looping a message back.
func (nw *Network) Send(from, to NodeID, m Message) {
	if from == to {
		panic(fmt.Sprintf("network: node %d sending %s to itself", from, m.Kind()))
	}
	if to < 0 || int(to) >= nw.n {
		panic(fmt.Sprintf("network: send to invalid node %d", to))
	}
	nw.count(m.Kind())
	at := nw.eng.Now() + nw.lat.Latency(from, to, nw.rng)
	link := int(from)*nw.n + int(to)
	if at < nw.lastArrival[link] {
		at = nw.lastArrival[link] // preserve FIFO under jitter
	}
	nw.lastArrival[link] = at
	if nw.proc > 0 {
		// The receiver is a single server: handling starts when both
		// the message has arrived and the previous one is finished.
		if at < nw.busyUntil[to] {
			at = nw.busyUntil[to]
		}
		at += nw.proc
		nw.busyUntil[to] = at
	}
	d := nw.getDelivery()
	d.from, d.to, d.m = from, to, m
	nw.eng.At(at, d.run)
}

type kindCount struct {
	kind string
	n    int64
}

func (nw *Network) count(kind string) {
	nw.total++
	for i := range nw.kinds {
		if nw.kinds[i].kind == kind {
			nw.kinds[i].n++
			return
		}
	}
	nw.kinds = append(nw.kinds, kindCount{kind, 1})
}

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Stats {
	s := Stats{ByKind: make(map[string]int64, len(nw.kinds)), Total: nw.total}
	for _, k := range nw.kinds {
		s.ByKind[k.kind] = k.n
	}
	return s
}

// Stats aggregates message counts by kind.
type Stats struct {
	ByKind map[string]int64
	Total  int64
}

// Kinds returns the observed message kinds in sorted order.
func (s Stats) Kinds() []string {
	out := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders "total=N [Kind=c ...]" for logs and tables.
func (s Stats) String() string {
	out := fmt.Sprintf("total=%d", s.Total)
	for _, k := range s.Kinds() {
		out += fmt.Sprintf(" %s=%d", k, s.ByKind[k])
	}
	return out
}
