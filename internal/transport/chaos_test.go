package transport_test

import (
	"bytes"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// chaosMemFabric wraps the in-process fabric in a Chaos with no fault
// armed: the wrapper must be a pure passthrough, so the full
// conformance suite runs against it unchanged. One wrapper is shared
// by every node, like the Mem it wraps, so stats count once.
func chaosMemFabric(t *testing.T, n int) []transport.Transport {
	return shared(transport.NewChaos(transport.NewMem(n, 0), 1), n)
}

// chaosMemArmedFabric arms the fault pipeline with an all-zero
// profile: traffic routes through the per-link forwarder queues, and
// every transport guarantee must still hold — the pipeline itself may
// not lose, duplicate, or reorder a link.
func chaosMemArmedFabric(t *testing.T, n int) []transport.Transport {
	ch := transport.NewChaos(transport.NewMem(n, 0), 1)
	ch.SetFaults(transport.Faults{})
	return shared(ch, n)
}

// chaosTCPFabric wraps every TCP endpoint of the maximally
// distributed topology in its own unarmed Chaos.
func chaosTCPFabric(t *testing.T, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i, tr := range tcpEndpoints(t, n) {
		eps[i] = transport.NewChaos(tr, int64(i))
	}
	return eps
}

func TestChaosMemConformance(t *testing.T) {
	transporttest.TestTransport(t, over(chaosMemFabric))
}

func TestChaosMemArmedConformance(t *testing.T) {
	transporttest.TestTransport(t, over(chaosMemArmedFabric))
}

func TestChaosTCPConformance(t *testing.T) {
	transporttest.TestTransport(t, over(chaosTCPFabric))
}

// TestChaosScheduleReplay pins determinism: the same seed, fault
// profile, and per-link send order must draw the identical decision
// schedule, byte for byte — which is what makes a chaotic failure
// reproducible from its spec alone. A different seed must not.
func TestChaosScheduleReplay(t *testing.T) {
	f := transport.Faults{Drop: 0.3, Dup: 0.2, DelayMin: 0, DelayMax: 100 * time.Microsecond}
	run := func(seed int64) ([]byte, transport.ChaosStats) {
		const n = 3
		ch := transport.NewChaos(transport.NewMem(n, 0), seed)
		defer ch.Close()
		for i := 0; i < n; i++ {
			ch.Bind(0, network.NodeID(i), func(network.NodeID, network.Message) {})
		}
		ch.SetFaults(f)
		// A fixed single-threaded drive over three links, batches
		// included: the decision sequence depends only on per-link
		// send order, which this fixes exactly.
		for s := int64(0); s < 200; s++ {
			transporttest.Send(ch, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: s})
			if s%3 == 0 {
				transporttest.Send(ch, transport.Link{From: 1, To: 2}, transporttest.Msg{K: transporttest.KindB, From: 1, Seq: s})
			}
			if s%5 == 0 {
				transporttest.Send(ch, transport.Link{From: 2, To: 0},
					transporttest.Msg{K: transporttest.KindA, From: 2, Seq: s},
					transporttest.Msg{K: transporttest.KindB, From: 2, Seq: s + 1})
			}
		}
		return ch.Trace(), ch.ChaosStats()
	}
	tr1, st1 := run(42)
	tr2, st2 := run(42)
	tr3, _ := run(43)
	if len(tr1) == 0 {
		t.Fatal("empty decision trace")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Fatalf("same seed produced different schedules:\n%x\n%x", tr1, tr2)
	}
	if bytes.Equal(tr1, tr3) {
		t.Fatal("different seeds produced the identical schedule")
	}
	if st1 != st2 {
		t.Fatalf("same seed produced different fault counts: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 || st1.Delayed == 0 {
		t.Fatalf("schedule exercised no faults: %+v", st1)
	}
}

// TestChaosDirectedPartition: severing a→b queues that link's traffic
// (FIFO) while b→a still flows; Heal delivers everything queued, in
// order — the asymmetric failure mode a bidirectional cut cannot
// model.
func TestChaosDirectedPartition(t *testing.T) {
	const n = 2
	ch := transport.NewChaos(transport.NewMem(n, 0), 7)
	defer ch.Close()
	got := make(chan transporttest.Msg, 64)
	ch.Bind(0, 0, func(from network.NodeID, m network.Message) { got <- m.(transporttest.Msg) })
	ch.Bind(0, 1, func(from network.NodeID, m network.Message) { got <- m.(transporttest.Msg) })

	ch.Partition(transport.Link{From: 0, To: 1})
	for s := int64(1); s <= 5; s++ {
		transporttest.Send(ch, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: s})
	}
	// The reverse link must be untouched.
	transporttest.Send(ch, transport.Link{From: 1, To: 0}, transporttest.Msg{K: transporttest.KindB, From: 1, Seq: 100})
	select {
	case m := <-got:
		if m.From != 1 {
			t.Fatalf("severed-link message delivered during partition: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reverse link blocked by a directed partition")
	}
	select {
	case m := <-got:
		t.Fatalf("message %+v crossed a severed link", m)
	case <-time.After(50 * time.Millisecond):
	}

	ch.Heal(transport.Link{From: 0, To: 1})
	for s := int64(1); s <= 5; s++ {
		select {
		case m := <-got:
			if m.Seq != s {
				t.Fatalf("post-heal delivery out of order: got seq %d, want %d", m.Seq, s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered after heal", s)
		}
	}
}

// TestChaosSpecRoundTrip pins the schedule encoding: encode → parse →
// re-encode must be the identity, and malformed inputs must be
// rejected rather than panic.
func TestChaosSpecRoundTrip(t *testing.T) {
	specs := []transport.Spec{
		{},
		{Seed: -12345},
		{Seed: 42, Faults: transport.Faults{Drop: 0.05, Dup: 0.01, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}, KillEvery: 250 * time.Millisecond},
		{Seed: 1 << 60, Faults: transport.Faults{Drop: 1, Dup: 1, DelayMax: time.Hour}},
	}
	for _, s := range specs {
		enc := s.Append(nil)
		got, err := transport.ParseSpec(enc)
		if err != nil {
			t.Fatalf("ParseSpec(%+v): %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip changed spec: %+v -> %+v", s, got)
		}
		hexGot, err := transport.ParseSpecHex(s.String())
		if err != nil || hexGot != s {
			t.Fatalf("hex round trip: %+v -> %+v (%v)", s, hexGot, err)
		}
	}
	bad := [][]byte{
		nil,
		{0xff},
		transport.Spec{Faults: transport.Faults{DelayMin: 2, DelayMax: 1}}.Append(nil),
		append(transport.Spec{}.Append(nil), 0),
	}
	for _, b := range bad {
		if _, err := transport.ParseSpec(b); err == nil {
			t.Fatalf("ParseSpec accepted malformed input %x", b)
		}
	}
}

// FuzzChaosSpec: ParseSpec must never panic, and anything it accepts
// must survive a re-encode/re-parse round trip unchanged — the replay
// handle a spec is must mean the same schedule wherever it lands.
func FuzzChaosSpec(f *testing.F) {
	f.Add(transport.Spec{}.Append(nil))
	f.Add(transport.Spec{Seed: 42, Faults: transport.Faults{Drop: 0.05, Dup: 0.01, DelayMax: 5 * time.Millisecond}, KillEvery: 100 * time.Millisecond}.Append(nil))
	f.Add(transport.Spec{Seed: -1, Faults: transport.Faults{Drop: 1, Dup: 1, DelayMin: 1, DelayMax: 1}}.Append(nil))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := transport.ParseSpec(b)
		if err != nil {
			return
		}
		again, err := transport.ParseSpec(s.Append(nil))
		if err != nil {
			t.Fatalf("accepted %x but rejects its own re-encoding: %v", b, err)
		}
		if again != s {
			t.Fatalf("re-encode round trip changed spec: %+v -> %+v", s, again)
		}
	})
}
