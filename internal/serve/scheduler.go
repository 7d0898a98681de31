// Package serve is the admission layer between many concurrent client
// sessions and the single-slot protocol state machine of one node.
//
// The paper's algorithms (hypothesis 4) admit exactly one outstanding
// request per node, so without this layer a "user" and a "protocol
// node" are the same thing and Cluster.Acquire is the ceiling on
// concurrency. The serve layer decouples them: sessions enqueue
// requests with deadlines and cancellation into a per-node Scheduler,
// and the node's event loop feeds them one at a time into the state
// machine under a pluggable policy. The goroutine runtime
// (internal/live) hosts it; the simulation (internal/driver) runs the
// paper's one request cycle per site and needs no admission queue.
//
// Starvation freedom is guaranteed by aging regardless of policy: a
// request that has waited at least the aging threshold is admitted in
// arrival order ahead of anything the policy prefers, so every request
// is admitted after a bounded number of policy-preferred admissions.
package serve

import (
	"container/heap"
	"fmt"
	"math"

	"mralloc/internal/sim"
)

// Policy names an admission ordering.
type Policy string

const (
	// FIFO admits requests in arrival order — maximal predictability,
	// no reordering.
	FIFO Policy = "fifo"
	// SSF (shortest-set-first) admits the request with the fewest
	// resources first: small requests conflict less and release
	// sooner, which lowers mean waiting at the cost of tail latency
	// for large requests (bounded by aging).
	SSF Policy = "ssf"
	// EDF (earliest-deadline-first) admits the request with the
	// nearest deadline first; requests without a deadline sort last,
	// among themselves in arrival order.
	EDF Policy = "edf"
	// Adaptive is the load-aware policy: it orders like EDF while the
	// node is calm, switches to SSF when the observed grant latency
	// crosses half the admission target (small requests drain a
	// congested queue fastest), and self-tunes an admission bound from
	// Little's law so the node sheds (DenyOverloaded) before the queue
	// passes the saturation knee. See adaptive.go.
	Adaptive Policy = "adaptive"
)

// Policies lists every admission policy, in documentation order.
func Policies() []Policy { return []Policy{FIFO, SSF, EDF, Adaptive} }

// ParsePolicy converts a flag/config string to a Policy. The empty
// string selects FIFO.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return FIFO, nil
	case FIFO, SSF, EDF, Adaptive:
		return Policy(s), nil
	}
	return "", fmt.Errorf("serve: unknown policy %q (want fifo, ssf, edf or adaptive)", s)
}

// DefaultAging is the aging threshold used when a configuration leaves
// it zero: long enough that a policy can express a preference, short
// enough that no request waits unboundedly behind a stream of
// preferred ones.
const DefaultAging = 500 * sim.Millisecond

// Item is one queued admission request. Callers fill the public
// fields, hand the item to Push, and get it back from Pop; V carries
// the runtime's per-request state (a live ticket). An item belongs to
// at most one scheduler at a time.
type Item struct {
	// Session identifies the submitting session, for fairness
	// accounting and diagnostics; the scheduler does not interpret it.
	Session uint64
	// Size is the number of requested resources — the SSF key.
	Size int
	// Deadline is the absolute instant the requester wants admission
	// by — the EDF key. Zero means none. The scheduler does not abort
	// late requests; deadlines order, cancellation aborts.
	Deadline sim.Time
	// Enqueued is set by Push: the admission queue arrival instant.
	Enqueued sim.Time
	// V is the caller's payload, opaque to the scheduler.
	V any

	seq   uint64 // arrival order, assigned by Push
	hi    int    // heap index; -1 when not in the heap
	state itemState
}

type itemState uint8

const (
	itemQueued itemState = iota
	itemPopped
	itemRemoved
)

// Scheduler is one node's admission queue. It is a plain data
// structure — no goroutines, no locks — driven by the event loop that
// owns the node (the live runtime calls it inside the node's loop).
// Items may be re-pushed once popped or removed.
type Scheduler struct {
	policy Policy
	aging  sim.Time
	seq    uint64
	heap   policyHeap
	// ad holds the load-tracking state of the Adaptive policy; nil for
	// the fixed policies, whose Observe*/Overloaded methods are no-ops.
	ad *adaptiveState
	// fifo holds every queued item in arrival order (lazily compacted)
	// so that aged items can be promoted front-first. Each entry pins
	// the push's seq: an entry whose item has since been popped and
	// re-pushed no longer matches and is compacted as stale, so a
	// recycled Item cannot revive its old queue position. The live
	// entries are fifo[head:]: consuming one advances head instead of
	// reslicing, so the buffer's capacity survives. It is rewound when
	// the queue empties, and a Push that finds it full slides the live
	// half down rather than growing it — a queue allocates only while
	// it is deeper than it has ever been.
	fifo []fifoEntry
	head int
}

// fifoEntry is one arrival-order record: the item plus the seq it was
// pushed under (stale once the item is popped, removed, or re-pushed).
type fifoEntry struct {
	it  *Item
	seq uint64
}

// stale reports whether the entry no longer describes a queued push.
func (e fifoEntry) stale() bool {
	return e.it.state != itemQueued || e.it.seq != e.seq
}

// NewScheduler builds a scheduler for one node. aging ≤ 0 selects
// DefaultAging; an unknown policy falls back to FIFO (callers validate
// with ParsePolicy).
func NewScheduler(p Policy, aging sim.Time) *Scheduler {
	if aging <= 0 {
		aging = DefaultAging
	}
	switch p {
	case FIFO, SSF, EDF:
		// Fixed policies order by themselves, forever.
	case Adaptive:
	default:
		p = FIFO
	}
	s := &Scheduler{policy: p, aging: aging}
	s.heap.mode = p
	if p == Adaptive {
		// Calm nodes order by deadline; pressure flips the mode to SSF.
		s.heap.mode = EDF
		s.ad = newAdaptiveState(DefaultAdmitTarget)
	}
	return s
}

// Policy reports the admission policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Len reports how many items are queued.
func (s *Scheduler) Len() int { return s.heap.Len() }

// Push enqueues it at instant now.
func (s *Scheduler) Push(it *Item, now sim.Time) {
	it.Enqueued = now
	it.seq = s.seq
	s.seq++
	it.state = itemQueued
	it.hi = -1
	heap.Push(&s.heap, it)
	if len(s.fifo) == cap(s.fifo) && s.head > 0 && s.head >= len(s.fifo)/2 {
		n := copy(s.fifo, s.fifo[s.head:])
		clear(s.fifo[n:])
		s.fifo, s.head = s.fifo[:n], 0
	}
	s.fifo = append(s.fifo, fifoEntry{it: it, seq: it.seq})
	if s.ad != nil {
		s.ad.onPush(s)
	}
}

// Pop removes and returns the next item to admit at instant now, or
// nil when the queue is empty. An item that has waited at least the
// aging threshold is returned in arrival order ahead of the policy's
// preference — the starvation-freedom guarantee.
func (s *Scheduler) Pop(now sim.Time) *Item {
	// Compact stale fifo entries (popped via the heap, removed, or
	// re-pushed under a newer seq).
	for s.head < len(s.fifo) && s.fifo[s.head].stale() {
		s.dropOldest()
	}
	if s.head == len(s.fifo) {
		return nil
	}
	if oldest := s.fifo[s.head].it; now-oldest.Enqueued >= s.aging {
		s.dropOldest()
		heap.Remove(&s.heap, oldest.hi)
		oldest.state = itemPopped
		if s.ad != nil {
			s.ad.onPop(s, oldest, now)
		}
		return oldest
	}
	it := heap.Pop(&s.heap).(*Item)
	it.state = itemPopped // its fifo entry is skipped lazily
	if s.ad != nil {
		s.ad.onPop(s, it, now)
	}
	return it
}

// dropOldest consumes the front fifo entry, rewinding the buffer to its
// start once nothing is left in it.
func (s *Scheduler) dropOldest() {
	s.fifo[s.head] = fifoEntry{}
	if s.head++; s.head == len(s.fifo) {
		s.fifo, s.head = s.fifo[:0], 0
	}
}

// Remove cancels a queued item, reporting whether it was still queued
// (false once popped or already removed).
func (s *Scheduler) Remove(it *Item) bool {
	if it.state != itemQueued {
		return false
	}
	heap.Remove(&s.heap, it.hi)
	it.state = itemRemoved // its fifo entry is skipped lazily
	if s.ad != nil {
		s.ad.onDepth(s.heap.Len())
	}
	return true
}

// policyHeap orders queued items by the current ordering mode, arrival
// order breaking ties (and being the whole key under FIFO). mode equals
// the configured policy for the fixed policies; the Adaptive policy
// flips it between EDF (calm) and SSF (pressure), re-heapifying on
// each switch.
type policyHeap struct {
	mode  Policy
	items []*Item
}

func (h *policyHeap) Len() int { return len(h.items) }

func (h *policyHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	switch h.mode {
	case SSF:
		if a.Size != b.Size {
			return a.Size < b.Size
		}
	case EDF:
		da, db := deadlineKey(a), deadlineKey(b)
		if da != db {
			return da < db
		}
	}
	return a.seq < b.seq
}

func deadlineKey(it *Item) sim.Time {
	if it.Deadline == 0 {
		return sim.Time(math.MaxInt64)
	}
	return it.Deadline
}

func (h *policyHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].hi = i
	h.items[j].hi = j
}

func (h *policyHeap) Push(x any) {
	it := x.(*Item)
	it.hi = len(h.items)
	h.items = append(h.items, it)
}

func (h *policyHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	it.hi = -1
	return it
}
