package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mralloc/internal/sim"
)

type testMsg struct {
	kind string
	seq  int
}

func (m testMsg) Kind() string { return m.kind }

func TestConstantLatencyDelivery(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{D: 5 * sim.Millisecond})
	var gotAt sim.Time
	var gotFrom NodeID
	nw.Bind(1, func(from NodeID, m Message) {
		gotAt = eng.Now()
		gotFrom = from
	})
	nw.Bind(0, func(NodeID, Message) {})
	nw.Send(0, 1, testMsg{kind: "x"})
	eng.Run()
	if gotAt != 5*sim.Millisecond || gotFrom != 0 {
		t.Fatalf("delivered at %v from %d", gotAt, gotFrom)
	}
}

// TestFIFOUnderZonesAndProcessing: every latency model there is fixes
// the delay per link and the service time per receiver, so per-link FIFO
// holds with no clamp in Send — across zones, with and without δ, for
// messages sent at arbitrary instants from and to arbitrary sites.
func TestFIFOUnderZonesAndProcessing(t *testing.T) {
	const n, k = 4, 200
	lat := Hierarchical{
		Zone:   TwoZones(n),
		Local:  Constant{D: 100 * sim.Microsecond},
		Remote: Constant{D: 2 * sim.Millisecond},
	}
	for _, proc := range []sim.Time{0, 600 * sim.Microsecond} {
		prop := func(seed int64) bool {
			eng := sim.New()
			nw := New(eng, n, lat)
			nw.SetProcessingDelay(proc)
			sent := make([]int, n*n) // per link: messages sent so far
			got := make([]int, n*n)  // per link: sequence number due next
			ok := true
			for i := 0; i < n; i++ {
				to := i
				nw.Bind(NodeID(i), func(from NodeID, m Message) {
					link := int(from)*n + to
					if m.(testMsg).seq != got[link] {
						ok = false
					}
					got[link]++
				})
			}
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < k; i++ {
				from := NodeID(r.Intn(n))
				to := NodeID((int(from) + 1 + r.Intn(n-1)) % n)
				eng.At(sim.Time(r.Int63n(int64(5*sim.Millisecond))), func() {
					link := int(from)*n + int(to)
					nw.Send(from, to, testMsg{kind: "m", seq: sent[link]})
					sent[link]++
				})
			}
			eng.Run()
			for link := range sent {
				ok = ok && got[link] == sent[link]
			}
			return ok
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("δ=%v: %v", proc, err)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 3, Constant{})
	for i := 0; i < 3; i++ {
		nw.Bind(NodeID(i), func(NodeID, Message) {})
	}
	nw.Send(0, 1, testMsg{kind: "A"})
	nw.Send(1, 2, testMsg{kind: "A"})
	nw.Send(2, 0, testMsg{kind: "B"})
	eng.Run()
	st := nw.Stats()
	if st.Total != 3 || st.ByKind["A"] != 2 || st.ByKind["B"] != 1 {
		t.Fatalf("stats = %v", st)
	}
	if ks := st.Kinds(); len(ks) != 2 || ks[0] != "A" || ks[1] != "B" {
		t.Fatalf("Kinds = %v", st.Kinds())
	}
	if st.String() != "total=3 A=2 B=1" {
		t.Fatalf("String = %q", st.String())
	}
	// Snapshot is independent of later traffic.
	nw.Send(0, 2, testMsg{kind: "A"})
	if st.Total != 3 {
		t.Fatal("snapshot mutated by later send")
	}
}

// TestNetworkSendSteadyStateAllocs: once the delivery pool, the agenda
// and the kind slots are warm, a send and its delivery allocate nothing.
func TestNetworkSendSteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{D: sim.Millisecond})
	nw.SetProcessingDelay(sim.Microsecond)
	delivered := 0
	for i := 0; i < 2; i++ {
		nw.Bind(NodeID(i), func(NodeID, Message) { delivered++ })
	}
	// Boxed once: converting a testMsg per send would be the test's own
	// allocation, not the network's.
	var a, b Message = testMsg{kind: "A"}, testMsg{kind: "B"}
	round := func() {
		nw.Send(0, 1, a)
		nw.Send(1, 0, b)
		nw.Send(0, 1, b)
		eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("steady-state round allocated %.1f objects, want 0", got)
	}
	if st := nw.Stats(); st.Total != int64(delivered) || st.ByKind["A"]*2 != st.ByKind["B"] {
		t.Fatalf("stats = %v after %d deliveries", st, delivered)
	}
}

func TestSelfSendPanics(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{})
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	nw.Send(1, 1, testMsg{kind: "x"})
}

func TestInvalidDestinationPanics(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	nw.Send(0, 7, testMsg{kind: "x"})
}

func TestHierarchicalLatency(t *testing.T) {
	h := Hierarchical{
		Zone:   TwoZones(8),
		Local:  Constant{D: 1 * sim.Millisecond},
		Remote: Constant{D: 9 * sim.Millisecond},
	}
	if d := h.Latency(0, 3); d != 1*sim.Millisecond {
		t.Errorf("intra-zone latency %v", d)
	}
	if d := h.Latency(0, 4); d != 9*sim.Millisecond {
		t.Errorf("cross-zone latency %v", d)
	}
	if d := h.Latency(7, 4); d != 1*sim.Millisecond {
		t.Errorf("intra-zone (second zone) latency %v", d)
	}
}

func TestProcessingDelaySerializesReceiver(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 3, Constant{D: sim.Millisecond})
	nw.SetProcessingDelay(2 * sim.Millisecond)
	var arrivals []sim.Time
	nw.Bind(2, func(NodeID, Message) { arrivals = append(arrivals, eng.Now()) })
	nw.Bind(0, func(NodeID, Message) {})
	nw.Bind(1, func(NodeID, Message) {})
	// Two senders hit node 2 at the same instant: the second delivery
	// must wait for the first service to finish.
	nw.Send(0, 2, testMsg{kind: "x"})
	nw.Send(1, 2, testMsg{kind: "x"})
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 3*sim.Millisecond { // 1ms wire + 2ms service
		t.Errorf("first delivery at %v, want 3ms", arrivals[0])
	}
	if arrivals[1] != 5*sim.Millisecond { // queued behind the first
		t.Errorf("second delivery at %v, want 5ms", arrivals[1])
	}
}

func TestProcessingDelayIdleReceiverNoQueue(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{D: sim.Millisecond})
	nw.SetProcessingDelay(2 * sim.Millisecond)
	var at sim.Time
	nw.Bind(1, func(NodeID, Message) { at = eng.Now() })
	nw.Bind(0, func(NodeID, Message) {})
	nw.Send(0, 1, testMsg{kind: "x"})
	eng.RunUntil(10 * sim.Millisecond)
	if at != 3*sim.Millisecond {
		t.Errorf("delivery at %v, want 3ms", at)
	}
	// A later message to an idle node pays only wire + service again.
	nw.Send(0, 1, testMsg{kind: "x"})
	eng.Run()
	if at != 13*sim.Millisecond {
		t.Errorf("second delivery at %v, want 13ms", at)
	}
}

func TestNegativeProcessingDelayPanics(t *testing.T) {
	eng := sim.New()
	nw := New(eng, 2, Constant{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	nw.SetProcessingDelay(-1)
}
