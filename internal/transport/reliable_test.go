package transport_test

import (
	"runtime"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// reliableMemFabric: every node on one Mem endpoint behind one
// Reliable wrapper — the wrapper must be a conformant Transport even
// when the fabric underneath is already perfect.
func reliableMemFabric(t *testing.T, n int) []transport.Transport {
	return shared(transport.NewReliable(transport.NewMem(n, 0)), n)
}

// reliableTCPFabric: one TCP endpoint per node, each behind its own
// Reliable wrapper — envelopes and acks cross real sockets.
func reliableTCPFabric(t *testing.T, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i, tr := range tcpEndpoints(t, n) {
		eps[i] = transport.NewReliable(tr)
	}
	return eps
}

// reliableLossyFabric: Reliable over a chaos fabric dropping,
// duplicating, and delaying frames. The conformance suite's guarantees
// (no loss, FIFO, no duplication) must hold anyway, on every shard's
// links — this is the wrapper's whole reason to exist.
func reliableLossyFabric(t *testing.T, n int) []transport.Transport {
	ch := transport.NewChaos(transport.NewMem(n, 0), 0x10552)
	ch.Apply(transport.Spec{Faults: transport.Faults{
		Drop:     0.10,
		Dup:      0.10,
		DelayMin: 0,
		DelayMax: 200 * time.Microsecond,
	}})
	r := transport.NewReliable(ch)
	r.SetRetransmit(2*time.Millisecond, 50*time.Millisecond)
	return shared(r, n)
}

func TestReliableMemConformance(t *testing.T) {
	transporttest.TestTransport(t, reliableMemFabric)
}

func TestReliableTCPConformance(t *testing.T) {
	transporttest.TestTransport(t, reliableTCPFabric)
}

func TestReliableLossyConformance(t *testing.T) {
	transporttest.TestTransport(t, reliableLossyFabric)
}

// TestReliableDupExactlyOnce is the deterministic dup regression: with
// the chaos fabric duplicating every single frame (Dup = 1), each
// message must still be delivered exactly once, in order, and the
// wrapper must account the discarded copies.
func TestReliableDupExactlyOnce(t *testing.T) {
	ch := transport.NewChaos(transport.NewMem(2, 0), 7)
	ch.Apply(transport.Spec{Faults: transport.Faults{Dup: 1.0}})
	r := transport.NewReliable(ch)
	defer r.Close()

	const msgs = 50
	got := make(chan transporttest.Msg, 4*msgs)
	r.Configure(transport.Config{}, func(_ transport.Link, m network.Message) { got <- m.(transporttest.Msg) })
	for i := 1; i <= msgs; i++ {
		r.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: int64(i)})
	}
	for i := 1; i <= msgs; i++ {
		select {
		case m := <-got:
			if m.Seq != int64(i) {
				t.Fatalf("delivery %d: got seq %d (dup or reorder leaked through)", i, m.Seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	// No extra deliveries may trail in: every duplicate was dropped.
	select {
	case m := <-got:
		t.Fatalf("duplicate delivered: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if rs := r.RelStats(); rs.DupsDropped == 0 {
		t.Fatalf("every frame was duplicated but DupsDropped = 0 (stats: %+v)", rs)
	}
}

// TestReliableRetransmitAfterTotalLoss wedges a link completely (Drop
// = 1), then heals it: the retransmission timer must deliver the
// frames sent into the black hole, in order, with no caller action. The
// stack runs on a virtual clock, so the schedule is exact: nothing is
// retransmitted before the clock moves; one advance past the first
// deadline re-sends the three frames once each into the still dropping
// link, where they vanish too; after the heal, one advance past the
// backed-off deadline re-sends them again and they arrive.
func TestReliableRetransmitAfterTotalLoss(t *testing.T) {
	const base = time.Second
	clk := sim.NewVirtual()
	ch := transport.NewChaos(transport.NewMem(2, 0), 11)
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 1.0}})
	r := transport.NewReliable(ch)
	r.SetRetransmit(base, 8*base)
	got := make(chan transporttest.Msg, 16)
	r.Configure(transport.Config{Clock: clk}, func(_ transport.Link, m network.Message) { got <- m.(transporttest.Msg) })
	defer r.Close()

	for i := 1; i <= 3; i++ {
		r.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: int64(i)})
	}
	if rs := r.RelStats(); rs.Retransmits != 0 {
		t.Fatalf("retransmitted before the clock moved (stats: %+v)", rs)
	}
	// Chaos drops inside Send, so whatever got through is already here.
	noDelivery := func(when string) {
		select {
		case m := <-got:
			t.Fatalf("delivery through a fully dropping link %s: %+v", when, m)
		default:
		}
	}
	noDelivery("before the clock moved")
	clk.Advance(base) // past the first deadline, in [base/2, base]
	awaitArmed(t, clk, "the retransmitter")
	if rs := r.RelStats(); rs.Retransmits != 3 {
		t.Fatalf("first round re-sent %d frames, want 3 (stats: %+v)", rs.Retransmits, rs)
	}
	noDelivery("after the first retransmission")
	ch.StopFaults()
	clk.Advance(2 * base) // past the second deadline, in [2base, 3base]
	for i := 1; i <= 3; i++ {
		select {
		case m := <-got:
			if m.Seq != int64(i) {
				t.Fatalf("post-heal delivery %d: got seq %d", i, m.Seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d lost despite retransmission", i)
		}
	}
	if rs := r.RelStats(); rs.Retransmits != 6 {
		t.Fatalf("two rounds re-send each of the 3 frames twice, got Retransmits = %d (stats: %+v)", rs.Retransmits, rs)
	}
}

// TestReliableAckResetsBackoff: two fruitless rounds push a link's
// deadline out to about 4×base, then an ack covering part of the
// window restarts the backoff. The rest must be retransmitted within
// base of that ack, not at the pushed-out deadline. The ack is held
// back by partitioning the ack link, so it arrives only when the fault
// window closes, two rounds late.
func TestReliableAckResetsBackoff(t *testing.T) {
	const base = time.Second
	clk := sim.NewVirtual()
	ch := transport.NewChaos(transport.NewMem(2, 0), 17)
	r := transport.NewReliable(ch)
	r.SetRetransmit(base, 8*base)
	got := make(chan transporttest.Msg, 16)
	r.Configure(transport.Config{Clock: clk}, func(_ transport.Link, m network.Message) { got <- m.(transporttest.Msg) })
	defer r.Close()
	expect := func(seq int64, when string) {
		t.Helper()
		select {
		case m := <-got:
			if m.Seq != seq {
				t.Fatalf("%s: got seq %d, want %d", when, m.Seq, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: seq %d never arrived", when, seq)
		}
	}
	await := func(what string, done func(transport.RelStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(r.RelStats()); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s within 10s (stats: %+v)", what, r.RelStats())
			}
		}
	}
	send := func(seq int64) {
		r.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: seq})
	}

	ch.Partition(transport.Link{From: 1, To: 0}) // acks queue until the heal
	send(1)
	expect(1, "before any fault")
	await("no ack of frame 1 queued", func(s transport.RelStats) bool { return s.AcksSent == 1 })
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 1}})
	send(2)
	send(3)
	clk.Advance(base) // round 1: the window 1..3, all dropped
	awaitArmed(t, clk, "the retransmitter after round 1")
	clk.Advance(2 * base) // round 2: dropped too; the next is 4×base out
	awaitArmed(t, clk, "the retransmitter after round 2")
	if rs := r.RelStats(); rs.Retransmits != 6 || rs.Acked != 0 {
		t.Fatalf("two fruitless rounds: want 6 retransmits and nothing acked (stats: %+v)", rs)
	}
	ch.StopFaults() // heals the ack link: the ack of frame 1 arrives
	await("frame 1 not acked", func(s transport.RelStats) bool { return s.Acked == 1 })
	clk.Advance(base)
	expect(2, "within base of the partial ack")
	expect(3, "within base of the partial ack")
	if rs := r.RelStats(); rs.Retransmits != 8 {
		t.Fatalf("the reset round re-sends frames 2 and 3 once, got Retransmits = %d (stats: %+v)", rs.Retransmits, rs)
	}
}

// awaitArmed waits until clk has a timer armed — the goroutines a test
// drives have re-armed theirs, so its next Advance replays one schedule
// — and fails the test, naming what, if none is within 10 s.
func awaitArmed(t *testing.T, clk *sim.Virtual, what string) {
	for deadline := time.Now().Add(10 * time.Second); clk.Armed() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Helper()
			t.Fatalf("%s did not arm a timer within 10s", what)
		}
	}
}

// TestReliableCloseLeaksNothing pins the wrapper's goroutine hygiene:
// acker and retransmitter must exit on Close even with unacked frames
// outstanding.
func TestReliableCloseLeaksNothing(t *testing.T) {
	defer leakcheck.Check(t)()
	ch := transport.NewChaos(transport.NewMem(2, 0), 13)
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 1.0}})
	r := transport.NewReliable(ch)
	r.SetRetransmit(time.Millisecond, 5*time.Millisecond)
	r.Configure(transport.Config{}, discard)
	r.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	time.Sleep(10 * time.Millisecond) // let at least one retransmission fire
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// keptRecord is a message the way core's batch records are: a pointer
// whose receiver keeps it and writes over it once delivered.
type keptRecord struct{ seq int }

func (*keptRecord) Kind() string { return "Test.Kept" }

// TestHazardDeliveredRecordNeverReadAgain pins what makes "the receiver
// keeps the record" sound under retransmission and duplication. The
// wrapper holds every sent message in its retransmit buffer until it is
// acknowledged and the fault injector may queue a message twice — so on an
// in-process fabric an envelope can still point at a record its receiver
// has already taken over. The stack must drop such an envelope on its
// sequence number alone: the handler below scribbles on every record the
// moment it is delivered, so a second delivery shows as a wrong seq and
// any read of a delivered record — anywhere between the retransmitter
// and the receiver — is a data race the detector reports.
func TestHazardDeliveredRecordNeverReadAgain(t *testing.T) {
	ch := transport.NewChaos(transport.NewMem(2, 0), 0x5eed)
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond}})
	r := transport.NewReliable(ch)
	r.SetRetransmit(time.Millisecond, 10*time.Millisecond)
	defer r.Close()

	msgs := 1000
	if testing.Short() {
		msgs = 500
	}
	next, done := 1, make(chan struct{})
	r.Configure(transport.Config{}, func(_ transport.Link, m network.Message) {
		rec := m.(*keptRecord)
		if rec.seq != next {
			t.Errorf("delivery %d carries seq %d: a record was delivered again after its receiver took it over", next, rec.seq)
		}
		rec.seq = -1 // the receiver's to overwrite, from now on
		if next++; next > msgs {
			close(done)
		}
	})
	for i := 1; i <= msgs; i++ {
		r.Send(transport.Link{From: 0, To: 1}, &keptRecord{seq: i})
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deliveries never completed")
	}
	cs, rs := ch.ChaosStats(), r.RelStats()
	if cs.Duplicated == 0 || rs.Retransmits == 0 || rs.DupsDropped == 0 {
		t.Fatalf("the run never put a delivered record back on the fabric: chaos %+v, recovery %+v", cs, rs)
	}
}
