package transport_test

import (
	"runtime"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	_ "mralloc/internal/serve" // registers the Client kinds and their samples
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// TestSingleMessageSendAllocs pins the cost of one Send on the
// in-process paths at 0 allocations: Mem delivers the message as a
// value, and the latency queue and the unarmed Chaos passthrough carry
// it the same way. This is the unit-level guard of the benchmark's
// allocs_per_op bound on sharded_delay (mem_closed's messages stay on
// their shard runner and never reach a Send).
func TestSingleMessageSendAllocs(t *testing.T) {
	cases := []struct {
		name string
		tr   transport.Transport
	}{
		{"Mem", transport.NewMem(2, 0)},
		{"MemLatency", transport.NewMem(2, time.Microsecond)},
		{"ChaosMemUnarmed", transport.NewChaos(transport.NewMem(2, 0), 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer c.tr.Close()
			c.tr.Configure(transport.Config{}, func(transport.Link, network.Message) {})
			var m network.Message = transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1}
			l := transport.Link{From: 0, To: 1}
			// 500 sends stay inside the latency link's queue, so no send
			// waits on the forwarder.
			if got := testing.AllocsPerRun(500, func() { c.tr.Send(l, m) }); got > 0 {
				t.Fatalf("%v allocs per Send, want 0", got)
			}
		})
	}
}

// TestReliableIdleAllocs: a wrapper whose every link is acknowledged
// arms no timer, so it neither wakes nor allocates while idle. One
// acknowledged exchange first, so that there is a link, and one advance
// past its first deadline, where the timer armed for it fires, finds
// nothing due and stays stopped; then a thousand 1-ms advances of a
// virtual clock, with nothing armed across any of them.
func TestReliableIdleAllocs(t *testing.T) {
	clk := sim.NewVirtual()
	r := transport.NewReliable(transport.NewMem(2, 0))
	got := make(chan struct{}, 1)
	r.Configure(transport.Config{Clock: clk}, func(transport.Link, network.Message) { got <- struct{}{} })
	defer r.Close()
	r.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	<-got
	for deadline := time.Now().Add(10 * time.Second); r.RelStats().Acked == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the one frame sent was never acknowledged")
		}
		runtime.Gosched()
	}
	clk.Advance(transport.DefaultRetransmitBase)
	for deadline := time.Now().Add(10 * time.Second); clk.Armed() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("10s past the first deadline: %d timers armed, want 0", clk.Armed())
		}
		runtime.Gosched()
	}
	armed := 0
	tick := func() {
		clk.Advance(time.Millisecond)
		armed = max(armed, clk.Armed())
	}
	if got := testing.AllocsPerRun(1000, tick); got > 0 {
		t.Fatalf("%v allocs per idle millisecond, want 0", got)
	}
	if armed != 0 {
		t.Fatalf("an idle wrapper armed %d timers, want none", armed)
	}
}

// TestCodecScaffoldingAllocs pins the codec entry points of the request
// path, over the first registered sample of the four kinds one client
// acquire puts on the wire: encoding into a buffer with room allocates
// nothing, and decoding allocates the message and nothing else. The
// encoder and decoder themselves come from pools, and the kind is
// looked up from the frame bytes; a local Enc/Dec (both escape through
// the registered codec functions) and a kind string cost one allocation
// per encode and two per decode on every frame. This is the unit-level
// guard of allocs_per_op on the socket workloads.
func TestCodecScaffoldingAllocs(t *testing.T) {
	if leakcheck.Race {
		// The race detector makes sync.Pool drop wire's pooled Dec at
		// random, so a decode reads one allocation more now and then.
		t.Skip("allocation budgets are measured without the race detector")
	}
	// What the decoded message owns, sample by sample.
	own := map[string]float64{
		"LASS.Request":   4,  // the record, visited list, request slice, the loan request's missing set
		"LASS.Response":  10, // the record, counter and token slices, two tokens (one allocation for both stamp vectors each), a queue, a loan list and its missing set
		"Client.Acquire": 2,  // resource list, interface box
		"Client.Grant":   0,  // one small integer: boxed without allocating
	}
	seen := map[string]bool{}
	buf := make([]byte, 0, 4096)
	for _, m := range wire.Samples() {
		want, ok := own[m.Kind()]
		if !ok || seen[m.Kind()] {
			continue
		}
		seen[m.Kind()] = true
		enc, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { buf, _ = wire.AppendStream(buf[:0], m, nil) }); got > 0 {
			t.Errorf("%s: %v allocs per AppendStream, want 0", m.Kind(), got)
		}
		if got := testing.AllocsPerRun(200, func() { wire.DecodeStream(enc, 0, 0, nil) }); got > want {
			t.Errorf("%s: %v allocs per DecodeStream, the message itself is %v", m.Kind(), got, want)
		}
	}
	if len(seen) != len(own) {
		t.Fatalf("samples cover %v, want every kind of %v", seen, own)
	}
}

// TestTCPRecordRecycleAllocs budgets what a LASS record costs to cross a
// socket in steady state. Two loopback endpoints relay a request and a
// response record back and forth, each delivered record sent straight
// back as a node gives away what it was delivered: the sending TCP
// releases what it encoded (wire.Release), and the decoder at the other
// end refills it, tokens included. What is left is the missing set a
// request's loan decodes into, one per request record; a token's loans
// share theirs with the delta shadows. The relay reads 0.50 objects per
// delivered record (in 20 runs out of 20); it read 1.50 while the
// shadows cloned each loan's set, and 6.00 with no release (every
// decode a fresh record, fresh tokens and their storage).
func TestTCPRecordRecycleAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	// Four nodes, two per endpoint: the sample tokens' stamp vectors are
	// four entries long.
	a, err := transport.ListenTCP("127.0.0.1:0", 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0", 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.Addr(), a.Addr(), b.Addr(), b.Addr()}
	if err := a.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	type delivery struct {
		at network.NodeID
		m  network.Message
	}
	got := make(chan delivery, 2) // the two records in flight
	cfg := transport.Config{Shards: []int{8}, Wire: transport.WireOptions{Delta: true}}
	a.Configure(cfg, func(l transport.Link, m network.Message) { got <- delivery{l.To, m} })
	b.Configure(cfg, func(l transport.Link, m network.Message) { got <- delivery{l.To, m} })
	var req, resp network.Message
	for _, m := range wire.Samples() {
		switch {
		case m.Kind() == "LASS.Request" && req == nil:
			req = m
		case m.Kind() == "LASS.Response" && resp == nil:
			resp = m
		}
	}
	a.Send(transport.Link{From: 0, To: 2}, req)
	a.Send(transport.Link{From: 0, To: 2}, resp)
	stall := time.NewTimer(time.Hour) // one timer: time.After costs objects per call
	relay := func() {
		stall.Reset(5 * time.Second)
		select {
		case d := <-got:
			if d.at == 0 {
				a.Send(transport.Link{From: 0, To: 2}, d.m)
			} else {
				b.Send(transport.Link{From: 2, To: 0}, d.m)
			}
		case <-stall.C:
			t.Fatalf("relay stalled (a: %v, b: %v)", a.Err(), b.Err())
		}
	}
	for i := 0; i < 1000; i++ {
		relay()
	}
	// testing.AllocsPerRun truncates to whole objects: count them here.
	const relays = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < relays; i++ {
		relay()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / relays
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if per > 0.55 {
		t.Errorf("%.2f objects per delivered LASS record, want ≤ 0.55", per)
	}
	t.Logf("%.2f objects per delivered LASS record (6.00 with no release)", per)
}
