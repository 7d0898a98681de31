// Package network is the communication model the paper assumes (§3.1):
// a complete graph of reliable point-to-point links between N nodes,
// with a per-link latency model γ and a per-receiver service time δ. It
// holds the model's types and its timing rule, Timing.Due: the instant a
// message sent now is handled. Both delays are fixed per link and per
// receiver, so a message is never due before one sent earlier on its
// link: FIFO holds by construction. explore.World runs a protocol under
// this rule; delivery orders the rule never produces are its search's job.
package network

import (
	"fmt"
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

// Timing is the timing rule of n nodes: a message takes its link's
// latency, then waits for its receiver, a single server that spends the
// service time on each message in arrival order. A zero service time
// models an infinitely fast receiver — under which a token that every
// request must traverse (a global lock) never queues, hiding precisely
// the synchronization cost the paper measures.
type Timing struct {
	lat       LatencyModel
	proc      sim.Time
	busyUntil []sim.Time // per receiver: when it finishes what it was sent
}

// NewTiming is the rule for n nodes under lat with service time proc.
func NewTiming(n int, lat LatencyModel, proc sim.Time) *Timing {
	if proc < 0 {
		panic("network: negative processing delay")
	}
	return &Timing{lat: lat, proc: proc, busyUntil: make([]sim.Time, n)}
}

// Due is the instant a message sent at now from one node to another is
// handled. It books the receiver's service, so call it once per message,
// in send order.
func (t *Timing) Due(now sim.Time, from, to NodeID) sim.Time {
	at := now + t.lat.Latency(from, to)
	if t.proc > 0 {
		// Handling starts when both the message has arrived and the
		// previous one is finished.
		at = max(at, t.busyUntil[to]) + t.proc
		t.busyUntil[to] = at
	}
	return at
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
