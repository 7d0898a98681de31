// Package transporttest is the reusable conformance suite for
// transport.Transport implementations. Any transport that carries a
// live cluster must pass TestTransport: it asserts exactly the
// guarantees the algorithms assume — reliable delivery, FIFO per link
// (ordered node pair within one shard), no duplication, every message
// delivered as the kind it was sent, and clean close semantics — at one
// shard (the flat cluster) and at three.
//
// The suite drives the transport through the same endpoint topology a
// cluster would: a Factory returns one endpoint per node (an
// in-process transport returns the same endpoint N times; a socket
// transport returns N connected endpoints), each configured for the
// shard layout the suite asks for. Message codecs for the suite's own
// test messages are registered with internal/wire, so a codec-backed
// transport needs no special support.
package transporttest

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// Msg is the suite's test message. K discriminates the two registered
// kinds so that per-kind delivery can be checked.
type Msg struct {
	K    string
	From network.NodeID
	Seq  int64
}

// The two kinds the suite sends.
const (
	KindA = "TT.A"
	KindB = "TT.B"
)

// Kind implements network.Message.
func (m Msg) Kind() string { return m.K }

func init() {
	enc := func(e *wire.Enc, nm network.Message) {
		m := nm.(Msg)
		e.String(m.K)
		e.Node(m.From)
		e.Varint(m.Seq)
	}
	dec := func(d *wire.Dec) network.Message {
		m := Msg{K: d.String(), From: d.Site(), Seq: d.Varint()}
		if m.K != KindA && m.K != KindB && d.Err() == nil {
			d.Fail("transporttest: bad kind %q in payload", m.K)
		}
		return m
	}
	wire.Register(KindA, enc, dec)
	wire.Register(KindB, enc, dec)
}

// Factory builds a connected transport fabric for n nodes and returns
// node i's endpoint at index i, every endpoint configured (Configure)
// for the shard layout sizes. Endpoints may repeat (one in-process
// endpoint hosting every node). The suite closes each distinct
// endpoint itself.
type Factory func(t *testing.T, n int, sizes []int) []transport.Transport

// Layouts are the shard layouts the suite runs under: the flat cluster
// (one shard — the one-shard instance of the same contract) and a
// three-shard one.
var Layouts = [][]int{{8}, {4, 3, 3}}

// TestTransport runs the conformance suite against one implementation,
// once per layout.
func TestTransport(t *testing.T, factory Factory) {
	for _, sizes := range Layouts {
		mk := func(t *testing.T, n int) []transport.Transport { return factory(t, n, sizes) }
		g := len(sizes)
		t.Run(fmt.Sprintf("G=%d", g), func(t *testing.T) {
			t.Run("FIFONoLossNoDup", func(t *testing.T) { testFIFO(t, mk, g) })
			t.Run("BatchFIFOAcrossBoundaries", func(t *testing.T) { testBurstFIFO(t, mk, g) })
			t.Run("PerKindStats", func(t *testing.T) { testKinds(t, mk, g) })
			t.Run("BindBuffersEarlyTraffic", func(t *testing.T) { testLateBind(t, mk, g) })
			t.Run("CleanClose", func(t *testing.T) { testClose(t, mk, g) })
		})
	}
}

// build is a Factory with the layout already chosen.
type build func(t *testing.T, n int) []transport.Transport

// seqBase offsets each shard's sequence space, so a message that
// leaked into another shard's handler reads as a sequence error.
func seqBase(shard int) int64 { return int64(shard) * 1_000_000 }

// distinct returns the unique endpoints of a fabric, in first-use order.
func distinct(eps []transport.Transport) []transport.Transport {
	var out []transport.Transport
	for _, ep := range eps {
		dup := false
		for _, d := range out {
			if d == ep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, ep)
		}
	}
	return out
}

func closeAll(t *testing.T, eps []transport.Transport) {
	t.Helper()
	for _, ep := range distinct(eps) {
		if err := ep.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// recorder tracks, per link, the last sequence number seen, and fails
// on any gap, reordering, duplicate, or delivery into the wrong shard.
// It also tallies what it received by kind.
type recorder struct {
	t       *testing.T
	mu      sync.Mutex
	lastSeq [][][]int64 // [shard][to][from]
	total   int
	kinds   map[string]int
}

func newRecorder(t *testing.T, n, g int) *recorder {
	r := &recorder{t: t, lastSeq: make([][][]int64, g), kinds: map[string]int{}}
	for s := range r.lastSeq {
		r.lastSeq[s] = make([][]int64, n)
		for to := range r.lastSeq[s] {
			r.lastSeq[s][to] = make([]int64, n)
			for from := range r.lastSeq[s][to] {
				r.lastSeq[s][to][from] = seqBase(s)
			}
		}
	}
	return r
}

// bindAll binds every (shard, node) slot of the fabric to the recorder.
func (r *recorder) bindAll(eps []transport.Transport) {
	for s := range r.lastSeq {
		for i, ep := range eps {
			ep.Bind(s, network.NodeID(i), r.handler(s, network.NodeID(i)))
		}
	}
}

func (r *recorder) handler(shard int, to network.NodeID) transport.Handler {
	return func(from network.NodeID, nm network.Message) {
		m, ok := nm.(Msg)
		if !ok {
			r.t.Errorf("shard %d node %d received %T, want Msg", shard, to, nm)
			return
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if m.From != from {
			r.t.Errorf("shard %d node %d: envelope sender %d but payload sender %d", shard, to, from, m.From)
		}
		if want := r.lastSeq[shard][to][from] + 1; m.Seq != want {
			r.t.Errorf("shard %d link %d→%d: got seq %d, want %d (loss, duplication, reordering or shard leak)",
				shard, from, to, m.Seq, want)
		}
		r.lastSeq[shard][to][from] = m.Seq
		r.total++
		r.kinds[m.Kind()]++
	}
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// waitFor polls until the recorder has seen want messages or the
// deadline passes — transports deliver asynchronously.
func (r *recorder) waitFor(want int, d time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(d)
	for r.count() < want {
		if time.Now().After(deadline) {
			r.t.Fatalf("delivered %d/%d messages within %v (message loss)", r.count(), want, d)
		}
		time.Sleep(time.Millisecond)
	}
	// Settle briefly so late duplicates would still be caught.
	time.Sleep(5 * time.Millisecond)
	if got := r.count(); got != want {
		r.t.Fatalf("delivered %d messages, want exactly %d (duplication)", got, want)
	}
}

// testFIFO hammers every link concurrently: one sender goroutine per
// (shard, ordered pair), interleaved kinds, sequence numbers checked
// at the receiver.
func testFIFO(t *testing.T, factory build, g int) {
	const n, msgs = 4, 200
	eps := factory(t, n)
	defer closeAll(t, eps)
	if got := eps[0].N(); got != n {
		t.Fatalf("N() = %d, want %d", got, n)
	}
	rec := newRecorder(t, n, g)
	rec.bindAll(eps)
	var wg sync.WaitGroup
	for shard := 0; shard < g; shard++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				l := transport.Link{Shard: shard, From: network.NodeID(from), To: network.NodeID(to)}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := int64(1); s <= msgs; s++ {
						k := KindA
						if s%3 == 0 {
							k = KindB
						}
						eps[l.From].Send(l, Msg{K: k, From: l.From, Seq: seqBase(l.Shard) + s})
					}
				}()
			}
		}
	}
	wg.Wait()
	rec.waitFor(g*n*(n-1)*msgs, 10*time.Second)
}

// testBurstFIFO sends bursts of varying length on every link, with a
// yield between bursts: sequence numbers must still arrive gapless and
// in order. A fabric that batches on its own (a coalescing writer's
// gather, a forwarder's queue) sees its batches start and end at
// varying points, and those boundaries must be invisible to delivery
// order.
func testBurstFIFO(t *testing.T, factory build, g int) {
	const n, rounds = 3, 60
	eps := factory(t, n)
	defer closeAll(t, eps)
	rec := newRecorder(t, n, g)
	rec.bindAll(eps)
	total := 0
	var wg sync.WaitGroup
	for shard := 0; shard < g; shard++ {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				l := transport.Link{Shard: shard, From: network.NodeID(from), To: network.NodeID(to)}
				// Per link: rounds of [1, (r%5)+2, 1] messages, each
				// burst followed by a yield.
				for r := 0; r < rounds; r++ {
					total += 1 + (r%5 + 2) + 1
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					seq := seqBase(l.Shard)
					send := func(k string) {
						seq++
						eps[l.From].Send(l, Msg{K: k, From: l.From, Seq: seq})
					}
					for r := 0; r < rounds; r++ {
						send(KindA)
						runtime.Gosched()
						for i := 0; i < r%5+2; i++ {
							k := KindA
							if i%2 == 1 {
								k = KindB
							}
							send(k)
						}
						runtime.Gosched()
						send(KindB)
						runtime.Gosched()
					}
				}()
			}
		}
	}
	wg.Wait()
	rec.waitFor(total, 10*time.Second)
}

// testKinds sends known per-kind counts, spread over the shards, and
// checks that the handlers received exactly those counts by kind: a
// message arrives as the kind it was sent, and nothing a wrapper adds
// on the way (an envelope, an ack) ever reaches a handler.
func testKinds(t *testing.T, factory build, g int) {
	const n = 3
	eps := factory(t, n)
	defer closeAll(t, eps)
	rec := newRecorder(t, n, g)
	rec.bindAll(eps)
	want := map[string]int{}
	seq := map[transport.Link]int64{}
	send := func(shard, from, to int, k string) {
		l := transport.Link{Shard: shard, From: network.NodeID(from), To: network.NodeID(to)}
		seq[l]++
		eps[from].Send(l, Msg{K: k, From: l.From, Seq: seqBase(shard) + seq[l]})
		want[k]++
	}
	for i := 0; i < 7; i++ {
		send(i%g, 0, 1, KindA)
		send(i%g, 1, 2, KindB)
	}
	send(g-1, 2, 0, KindA)
	rec.waitFor(want[KindA]+want[KindB], 10*time.Second)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !maps.Equal(rec.kinds, want) {
		t.Errorf("handlers received %v by kind, want %v", rec.kinds, want)
	}
}

// testLateBind sends to a node, in every shard, before its handlers
// are bound; a reliable transport buffers and delivers in order at
// Bind time.
func testLateBind(t *testing.T, factory build, g int) {
	const n, early = 2, 50
	eps := factory(t, n)
	defer closeAll(t, eps)
	rec := newRecorder(t, n, g)
	sendRange := func(lo, hi int64) {
		for shard := 0; shard < g; shard++ {
			l := transport.Link{Shard: shard, From: 0, To: 1}
			for s := lo; s <= hi; s++ {
				eps[0].Send(l, Msg{K: KindA, From: 0, Seq: seqBase(shard) + s})
			}
		}
	}
	for shard := 0; shard < g; shard++ {
		eps[0].Bind(shard, 0, rec.handler(shard, 0))
	}
	sendRange(1, early)
	// Give an async transport time to get the early traffic in flight,
	// then bind: everything must arrive, in order.
	time.Sleep(20 * time.Millisecond)
	for shard := 0; shard < g; shard++ {
		eps[1].Bind(shard, 1, rec.handler(shard, 1))
	}
	sendRange(early+1, 2*early)
	rec.waitFor(g*2*early, 10*time.Second)
}

// testClose: Close is idempotent, terminates, and later Sends — on any
// shard — neither panic nor deliver.
func testClose(t *testing.T, factory build, g int) {
	const n = 2
	eps := factory(t, n)
	rec := newRecorder(t, n, g)
	rec.bindAll(eps)
	for shard := 0; shard < g; shard++ {
		eps[0].Send(transport.Link{Shard: shard, From: 0, To: 1}, Msg{K: KindA, From: 0, Seq: seqBase(shard) + 1})
	}
	rec.waitFor(g, 10*time.Second)
	closeAll(t, eps)
	closeAll(t, eps) // idempotent
	for shard := 0; shard < g; shard++ {
		eps[0].Send(transport.Link{Shard: shard, From: 0, To: 1}, Msg{K: KindA, From: 0, Seq: seqBase(shard) + 2})
	}
	time.Sleep(10 * time.Millisecond)
	if got := rec.count(); got != g {
		t.Fatalf("message delivered after Close (count %d, want %d)", got, g)
	}
}
