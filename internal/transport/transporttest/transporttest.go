// Package transporttest is the reusable conformance suite for
// transport.Transport implementations. Any transport that carries a
// live cluster must pass TestTransport: it asserts exactly the
// guarantees the algorithms assume — reliable delivery, FIFO per link
// (ordered node pair within one shard), no duplication, every message
// delivered as the kind it was sent, no loss of what is sent to a peer
// endpoint not configured yet, and clean close semantics — at one shard
// (the flat cluster) and at three.
//
// The suite drives the transport through the same endpoint topology and
// lifecycle a cluster would: a Factory returns one connected endpoint
// per node (an in-process transport returns the same endpoint N times; a
// socket transport returns N connected endpoints), and the suite
// configures each for the shard layout it runs under, with its own
// handler. Message codecs for the suite's own test messages are
// registered with internal/wire, so a codec-backed transport needs no
// special support.
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
// node i's endpoint at index i, not configured yet. Endpoints may repeat
// (one in-process endpoint hosting every node). The suite configures
// and closes each distinct endpoint itself.
type Factory func(t *testing.T, n int) []transport.Transport

// Layouts are the shard layouts the suite runs under: the flat cluster
// (one shard — the one-shard instance of the same contract) and a
// three-shard one.
var Layouts = [][]int{{8}, {4, 3, 3}}

// TestTransport runs the conformance suite against one implementation,
// once per layout.
func TestTransport(t *testing.T, factory Factory) {
	for _, sizes := range Layouts {
		f := fabric{factory, sizes}
		t.Run(fmt.Sprintf("G=%d", len(sizes)), func(t *testing.T) {
			t.Run("FIFONoLossNoDup", func(t *testing.T) { testFIFO(t, f) })
			t.Run("BatchFIFOAcrossBoundaries", func(t *testing.T) { testBurstFIFO(t, f) })
			t.Run("PerKindStats", func(t *testing.T) { testKinds(t, f) })
			t.Run("PeerConfiguredLate", func(t *testing.T) { testLateConfigure(t, f) })
			t.Run("CleanClose", func(t *testing.T) { testClose(t, f) })
		})
	}
}

// fabric is a Factory with the layout the suite runs under.
type fabric struct {
	factory Factory
	sizes   []int
}

// config is what the suite announces to every endpoint.
func (f fabric) config() transport.Config { return transport.Config{Shards: f.sizes} }

// start builds a fabric of n nodes and configures every endpoint with a
// fresh recorder as its handler, as live.New does.
func (f fabric) start(t *testing.T, n int) ([]transport.Transport, *recorder) {
	eps := f.factory(t, n)
	rec := newRecorder(t, n, len(f.sizes))
	for _, ep := range distinct(eps) {
		ep.Configure(f.config(), rec.deliver)
	}
	return eps, rec
}

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

// deliver is the handler of every endpoint under test.
func (r *recorder) deliver(l transport.Link, nm network.Message) {
	m, ok := nm.(Msg)
	if !ok {
		r.t.Errorf("shard %d node %d received %T, want Msg", l.Shard, l.To, nm)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.From != l.From {
		r.t.Errorf("shard %d node %d: envelope sender %d but payload sender %d", l.Shard, l.To, l.From, m.From)
	}
	if want := r.lastSeq[l.Shard][l.To][l.From] + 1; m.Seq != want {
		r.t.Errorf("shard %d link %d→%d: got seq %d, want %d (loss, duplication, reordering or shard leak)",
			l.Shard, l.From, l.To, m.Seq, want)
	}
	r.lastSeq[l.Shard][l.To][l.From] = m.Seq
	r.total++
	r.kinds[m.Kind()]++
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
func testFIFO(t *testing.T, f fabric) {
	const n, msgs = 4, 200
	g := len(f.sizes)
	eps, rec := f.start(t, n)
	defer closeAll(t, eps)
	if got := eps[0].N(); got != n {
		t.Fatalf("N() = %d, want %d", got, n)
	}
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
func testBurstFIFO(t *testing.T, f fabric) {
	const n, rounds = 3, 60
	g := len(f.sizes)
	eps, rec := f.start(t, n)
	defer closeAll(t, eps)
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
func testKinds(t *testing.T, f fabric) {
	const n = 3
	g := len(f.sizes)
	eps, rec := f.start(t, n)
	defer closeAll(t, eps)
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

// testLateConfigure sends from node 0 to node 1, in every shard, while
// node 1's endpoint is not configured yet, and configures it 20 ms
// later: a peer that is up but not yet announced (a process between
// ListenTCP and its cluster's Configure) holds what is sent to it, and
// everything must arrive, in order. Where both nodes share one
// endpoint, both ends are configured from the start.
func testLateConfigure(t *testing.T, f fabric) {
	const n, early = 2, 50
	g := len(f.sizes)
	eps := f.factory(t, n)
	defer closeAll(t, eps)
	rec := newRecorder(t, n, g)
	eps[0].Configure(f.config(), rec.deliver)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for shard := 0; shard < g; shard++ {
			l := transport.Link{Shard: shard, From: 0, To: 1}
			for s := int64(1); s <= early; s++ {
				eps[0].Send(l, Msg{K: KindA, From: 0, Seq: seqBase(shard) + s})
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if eps[1] != eps[0] {
		eps[1].Configure(f.config(), rec.deliver)
	}
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("Send to a peer configured late still blocked after 10s")
	}
	rec.waitFor(g*early, 10*time.Second)
}

// testClose: Close is idempotent, terminates, and later Sends — on any
// shard — neither panic nor deliver.
func testClose(t *testing.T, f fabric) {
	const n = 2
	g := len(f.sizes)
	eps, rec := f.start(t, n)
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
