package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one kind of span the traced run records. The wrappers
// in deploy.go sit on the three seams the program already exposes
// (BackendSession, alg.Node, alg.Env) and call into the tracer; the
// load generator records client.acquire at its call site.
type spanKind uint8

const (
	spanClientAcquire  spanKind = iota // load generator: call → grant
	spanBackendAcquire                 // BackendSession wrapper: Acquire call → return
	spanGrantWait                      // Node.Request → Env.Granted
	spanNodeRequest                    // busy time inside Node.Request
	spanNodeDeliver                    // busy time inside Node.Deliver
	spanNodeRelease                    // busy time inside Node.Release
	spanNodeTick                       // busy time inside Ticker.Tick
	spanEnvSend                        // busy time inside Env.Send (runtime egress)
	spanLinkTransit                    // k-th Env.Send on a link → k-th Node.Deliver on it
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.acquire", "backend.acquire", "core.grant_wait",
	"node.request", "node.deliver", "node.release", "node.tick",
	"env.send", "link.transit",
}

// maxRawSpans bounds the spans kept verbatim for the trace file. Every
// span feeds the aggregates; only the first maxRawSpans of the window
// are written out, which is a few hundred milliseconds of the busiest
// workload — enough to read a request's path, small enough to write at
// exit without stretching the run.
const maxRawSpans = 50000

// span is one recorded interval. Start is nanoseconds since the
// tracer's epoch; Child is the id of the span this one waited for
// (client.acquire → backend.acquire → core.grant_wait), resolved to
// parent links when the file is written.
type span struct {
	ID    uint32
	Kind  spanKind
	Shard int16
	Node  int16
	Peer  int16 // link.transit: the sender; others: -1
	Start int64
	Dur   int64
	Child uint32
}

// kindAgg aggregates one span kind over the measurement window. Counts
// and sums are atomics: the busy-time kinds fire tens of times per
// request and must not queue behind a lock.
type kindAgg struct {
	n, sum atomic.Int64
	mu     sync.Mutex
	// durs holds every duration of core.grant_wait, the one kind here
	// reported as percentiles; link.transit keeps its own per link
	// (linkQueue.durs), under the lock a delivery holds anyway.
	durs []int64
}

// linkQueue holds the send instants of one (shard, from, to) link that
// have not met their delivery yet. FIFO per link holds by hypothesis,
// so the k-th delivery pairs with the k-th send.
type linkQueue struct {
	mu    sync.Mutex
	sends []int64
	head  int
	durs  []int64 // transits recorded on this link while the window was open
}

// tracer collects spans in memory. All methods are safe for concurrent
// use; recording is a no-op outside the measurement window.
type tracer struct {
	epoch  time.Time
	open   atomic.Bool // window open: spans that end now are recorded
	nextID atomic.Uint32

	kinds [numSpanKinds]kindAgg

	rawN  atomic.Int64 // spans offered to raw; only the first maxRawSpans take the lock
	rawMu sync.Mutex
	raw   []span

	// matchLinks is off under the simulator, where send and deliver
	// instants are wall-clock times of a virtual-time event queue.
	matchLinks bool
	nodes      int
	links      []linkQueue // (shard*nodes+from)*nodes+to
	unmatched  atomic.Int64

	// Holder tables link a request's spans across layers without
	// carrying an id through the program: grants are exclusive, so
	// between a grant and its release the first resource of the set
	// names exactly one request.
	coreHolder    [][]atomic.Uint32 // [shard][local resource] → core.grant_wait id
	backendHolder []atomic.Uint32   // [global resource] → backend.acquire id
	locate        func(r int) (shard, local int)
}

func newTracer(nodes int, shardSizes []int, resources int, locate func(int) (int, int), matchLinks bool) *tracer {
	t := &tracer{
		epoch:         time.Now(),
		matchLinks:    matchLinks,
		locate:        locate,
		nodes:         nodes,
		links:         make([]linkQueue, len(shardSizes)*nodes*nodes),
		coreHolder:    make([][]atomic.Uint32, len(shardSizes)),
		backendHolder: make([]atomic.Uint32, resources),
	}
	for s, size := range shardSizes {
		t.coreHolder[s] = make([]atomic.Uint32, size)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts an instant to the tracer's clock.
func (t *tracer) at(i time.Time) int64 { return int64(i.Sub(t.epoch)) }

// record files one finished span and returns its id (0 when the window
// is closed and nothing was recorded).
func (t *tracer) record(kind spanKind, shard, node, peer int, start, end int64, child uint32) uint32 {
	if !t.open.Load() {
		return 0
	}
	id := t.nextID.Add(1)
	dur := end - start
	a := &t.kinds[kind]
	a.n.Add(1)
	a.sum.Add(dur)
	if kind == spanGrantWait {
		a.mu.Lock()
		a.durs = append(a.durs, dur)
		a.mu.Unlock()
	}
	if t.rawN.Add(1) <= maxRawSpans {
		t.rawMu.Lock()
		t.raw = append(t.raw, span{
			ID: id, Kind: kind, Shard: int16(shard), Node: int16(node), Peer: int16(peer),
			Start: start, Dur: dur, Child: child,
		})
		t.rawMu.Unlock()
	}
	return id
}

// coreGranted closes the core.grant_wait span of the request whose
// lowest local resource is firstLocal.
func (t *tracer) coreGranted(shard, node, firstLocal int, reqStart int64) {
	id := t.record(spanGrantWait, shard, node, -1, reqStart, t.now(), 0)
	t.coreHolder[shard][firstLocal].Store(id)
}

// backendGranted closes a backend.acquire span that started at t0 for
// the request whose lowest resource is firstRes.
func (t *tracer) backendGranted(firstRes int, t0 int64) {
	s, l := t.locate(firstRes)
	id := t.record(spanBackendAcquire, s, -1, -1, t0, t.now(), t.coreHolder[s][l].Load())
	t.backendHolder[firstRes].Store(id)
}

// clientGranted closes a client.acquire span; viaPort says whether the
// request went through a client port (and so has a backend.acquire
// child) or straight into a cluster.
func (t *tracer) clientGranted(firstRes int, viaPort bool, t0, t1 int64) {
	s, l := t.locate(firstRes)
	child := t.coreHolder[s][l].Load()
	if viaPort {
		child = t.backendHolder[firstRes].Load()
	}
	t.record(spanClientAcquire, s, -1, -1, t0, t1, child)
}

// sent notes an Env.Send on a link at instant at.
func (t *tracer) sent(shard, from, to int, at int64) {
	if !t.matchLinks {
		return
	}
	q := &t.links[(shard*t.nodes+from)*t.nodes+to]
	q.mu.Lock()
	q.sends = append(q.sends, at)
	q.mu.Unlock()
}

// delivered pairs a Node.Deliver on a link with the oldest unmatched
// send on it and records the transit. A delivery that finds no send is
// a duplicate or a reordering the fabric promised not to produce.
func (t *tracer) delivered(shard, from, to int, at int64) {
	if !t.matchLinks {
		return
	}
	q := &t.links[(shard*t.nodes+from)*t.nodes+to]
	q.mu.Lock()
	if q.head == len(q.sends) {
		q.mu.Unlock()
		t.unmatched.Add(1)
		return
	}
	sentAt := q.sends[q.head]
	q.head++
	if q.head == len(q.sends) { // drained: reuse the backing array
		q.sends, q.head = q.sends[:0], 0
	}
	if t.open.Load() {
		q.durs = append(q.durs, at-sentAt)
	}
	q.mu.Unlock()
	t.record(spanLinkTransit, shard, to, from, sentAt, at, 0)
}

// inFlight counts sends that never met a delivery; after the load has
// stopped and the fabric has settled every one is a lost message.
func (t *tracer) inFlight() int64 {
	var n int64
	for i := range t.links {
		q := &t.links[i]
		q.mu.Lock()
		n += int64(len(q.sends) - q.head)
		q.mu.Unlock()
	}
	return n
}

func (t *tracer) count(k spanKind) float64 { return float64(t.kinds[k].n.Load()) }
func (t *tracer) sumNS(k spanKind) float64 { return float64(t.kinds[k].sum.Load()) }

func (t *tracer) meanNS(k spanKind) float64 {
	if n := t.count(k); n > 0 {
		return t.sumNS(k) / n
	}
	return 0
}

// pctUS is the p-quantile of kind k's durations in microseconds, 0 when
// the kind has too few samples to resolve it.
func (t *tracer) pctUS(k spanKind, p float64) float64 {
	var durs []int64
	if k == spanLinkTransit {
		for i := range t.links {
			q := &t.links[i]
			q.mu.Lock()
			durs = append(durs, q.durs...)
			q.mu.Unlock()
		}
	} else {
		a := &t.kinds[k]
		a.mu.Lock()
		durs = append(durs, a.durs...)
		a.mu.Unlock()
	}
	slices.Sort(durs)
	v, err := percentile(durs, p)
	if err != nil {
		return 0
	}
	return v / 1e3
}

// traceFile is the layout of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Note     string         `json:"note"`
	Counts   map[string]int `json:"span_counts"`
	Spans    []traceSpan    `json:"spans"`
}

type traceSpan struct {
	ID      uint32 `json:"id"`
	Name    string `json:"name"`
	Parent  uint32 `json:"parent,omitempty"`  // the span that waited for this one
	Request uint32 `json:"request,omitempty"` // id of the root span of the request
	Shard   int    `json:"shard"`
	Node    int    `json:"node"`
	From    *int   `json:"from,omitempty"` // link.transit: sending node
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// write dumps the kept spans, resolving child links into parent and
// request ids.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.rawMu.Lock()
	raw := append([]span(nil), t.raw...)
	t.rawMu.Unlock()
	parent := make(map[uint32]uint32, len(raw))
	for _, s := range raw {
		if s.Child != 0 {
			parent[s.Child] = s.ID
		}
	}
	out := traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     fmt.Sprintf("first %d spans of the measurement window; aggregates in the result file cover all of it", maxRawSpans),
		Counts:   make(map[string]int, numSpanKinds),
		Spans:    make([]traceSpan, 0, len(raw)),
	}
	for k := range t.kinds {
		out.Counts[spanNames[k]] = int(t.kinds[k].n.Load())
	}
	for _, s := range raw {
		ts := traceSpan{
			ID: s.ID, Name: spanNames[s.Kind], Parent: parent[s.ID],
			Shard: int(s.Shard), Node: int(s.Node), StartNS: s.Start, DurNS: s.Dur,
		}
		root := s.ID
		for p := parent[root]; p != 0; p = parent[root] {
			root = p
		}
		if root != s.ID || s.Child != 0 {
			ts.Request = root
		}
		if s.Kind == spanLinkTransit {
			from := int(s.Peer)
			ts.From = &from
		}
		out.Spans = append(out.Spans, ts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
