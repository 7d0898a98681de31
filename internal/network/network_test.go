package network_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

type testMsg struct {
	kind string
	seq  int
}

func (m testMsg) Kind() string { return m.kind }

// probe is a node that keeps its Env, so a test can send through it, and
// reports what is delivered to it.
type probe struct {
	env alg.Env
	got func(from network.NodeID, m network.Message)
}

func (p *probe) Attach(env alg.Env)   { p.env = env }
func (p *probe) Request(resource.Set) {}
func (p *probe) Release()             {}
func (p *probe) Deliver(from network.NodeID, m network.Message) {
	if p.got != nil {
		p.got(from, m)
	}
}

// world is a timed World of n probes under lat and service time proc.
func world(n int, lat network.LatencyModel, proc sim.Time) (*explore.World, []*probe) {
	ps, nodes := make([]*probe, n), make([]alg.Node, n)
	for i := range ps {
		ps[i] = &probe{}
		nodes[i] = ps[i]
	}
	return explore.NewTimed(nodes, 1, network.NewTiming(n, lat, proc), nil), ps
}

func TestConstantLatencyDelivery(t *testing.T) {
	w, ps := world(2, network.Constant{D: 5 * sim.Millisecond}, 0)
	var gotAt sim.Time
	gotFrom := network.None
	ps[1].got = func(from network.NodeID, m network.Message) { gotAt, gotFrom = w.Now(), from }
	ps[0].env.Send(1, testMsg{kind: "x"})
	w.Run()
	if gotAt != 5*sim.Millisecond || gotFrom != 0 {
		t.Fatalf("delivered at %v from %d", gotAt, gotFrom)
	}
}

// TestFIFOUnderZonesAndProcessing: every latency model there is fixes
// the delay per link and the service time per receiver, so no message is
// due before one sent earlier on its link — across zones, with and
// without δ, for messages sent at arbitrary instants from and to
// arbitrary sites. That is what lets a timed World deliver the head of
// its link at each due instant: each delivery is the message sent, at
// the instant the timing rule gave it.
func TestFIFOUnderZonesAndProcessing(t *testing.T) {
	const n, k = 4, 200
	lat := network.Hierarchical{
		Zone:   network.TwoZones(n),
		Local:  network.Constant{D: 100 * sim.Microsecond},
		Remote: network.Constant{D: 2 * sim.Millisecond},
	}
	for _, proc := range []sim.Time{0, 600 * sim.Microsecond} {
		prop := func(seed int64) bool {
			w, ps := world(n, lat, proc)
			rule := network.NewTiming(n, lat, proc) // the same rule, booked in step
			dueAt := make([][]sim.Time, n*n)        // per link: due instant of each message sent
			got := make([]int, n*n)                 // per link: sequence number due next
			ok := true
			for i := range ps {
				to := i
				ps[i].got = func(from network.NodeID, m network.Message) {
					link := int(from)*n + to
					seq := m.(testMsg).seq
					ok = ok && seq == got[link] && w.Now() == dueAt[link][seq]
					got[link]++
				}
			}
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < k; i++ {
				from := network.NodeID(r.Intn(n))
				to := network.NodeID((int(from) + 1 + r.Intn(n-1)) % n)
				w.At(sim.Time(r.Int63n(int64(5*sim.Millisecond))), func() {
					link := int(from)*n + int(to)
					dueAt[link] = append(dueAt[link], rule.Due(w.Now(), from, to))
					ps[from].env.Send(to, testMsg{kind: "m", seq: len(dueAt[link]) - 1})
				})
			}
			w.Run()
			for link := range dueAt {
				ok = ok && got[link] == len(dueAt[link])
			}
			return ok && len(w.InFlight()) == 0
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("δ=%v: %v", proc, err)
		}
	}
}

// TestStatsCounting: a World counts what its nodes send, by kind, once
// per Send.
func TestStatsCounting(t *testing.T) {
	w, ps := world(3, network.Constant{}, 0)
	ps[0].env.Send(1, testMsg{kind: "A"})
	ps[1].env.Send(2, testMsg{kind: "A"})
	ps[2].env.Send(0, testMsg{kind: "B"})
	w.Run()
	st := w.Stats()
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
	ps[0].env.Send(2, testMsg{kind: "A"})
	if st.Total != 3 {
		t.Fatal("snapshot mutated by later send")
	}
}

// TestNetworkSendSteadyStateAllocs: once the delivery records, the
// agenda, the in-flight queue and the kind slots are warm, a timed send
// and its delivery allocate nothing.
func TestNetworkSendSteadyStateAllocs(t *testing.T) {
	w, ps := world(2, network.Constant{D: sim.Millisecond}, sim.Microsecond)
	delivered := 0
	for _, p := range ps {
		p.got = func(network.NodeID, network.Message) { delivered++ }
	}
	// Boxed once: converting a testMsg per send would be the test's own
	// allocation, not the World's.
	var a, b network.Message = testMsg{kind: "A"}, testMsg{kind: "B"}
	round := func() {
		ps[0].env.Send(1, a)
		ps[1].env.Send(0, b)
		ps[0].env.Send(1, b)
		w.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("steady-state round allocated %.1f objects, want 0", got)
	}
	if st := w.Stats(); st.Total != int64(delivered) || st.ByKind["A"]*2 != st.ByKind["B"] {
		t.Fatalf("stats = %v after %d deliveries", st, delivered)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, ps := world(2, network.Constant{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	ps[1].env.Send(1, testMsg{kind: "x"})
}

func TestInvalidDestinationPanics(t *testing.T) {
	_, ps := world(2, network.Constant{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	ps[0].env.Send(7, testMsg{kind: "x"})
}

func TestHierarchicalLatency(t *testing.T) {
	h := network.Hierarchical{
		Zone:   network.TwoZones(8),
		Local:  network.Constant{D: 1 * sim.Millisecond},
		Remote: network.Constant{D: 9 * sim.Millisecond},
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
	// The rule applies the model per link.
	rule := network.NewTiming(8, h, 0)
	if at := rule.Due(sim.Millisecond, 4, 0); at != 10*sim.Millisecond {
		t.Errorf("cross-zone message sent at 1ms due at %v, want 10ms", at)
	}
}

func TestProcessingDelaySerializesReceiver(t *testing.T) {
	rule := network.NewTiming(3, network.Constant{D: sim.Millisecond}, 2*sim.Millisecond)
	// Two senders hit node 2 at the same instant: the second message
	// must wait for the first service to finish.
	if at := rule.Due(0, 0, 2); at != 3*sim.Millisecond { // 1ms wire + 2ms service
		t.Errorf("first message due at %v, want 3ms", at)
	}
	if at := rule.Due(0, 1, 2); at != 5*sim.Millisecond { // queued behind the first
		t.Errorf("second message due at %v, want 5ms", at)
	}
	// Another receiver's queue is its own.
	if at := rule.Due(0, 2, 0); at != 3*sim.Millisecond {
		t.Errorf("message to an idle receiver due at %v, want 3ms", at)
	}
}

func TestProcessingDelayIdleReceiverNoQueue(t *testing.T) {
	w, ps := world(2, network.Constant{D: sim.Millisecond}, 2*sim.Millisecond)
	var at sim.Time
	ps[1].got = func(network.NodeID, network.Message) { at = w.Now() }
	ps[0].env.Send(1, testMsg{kind: "x"})
	w.RunUntil(10 * sim.Millisecond)
	if at != 3*sim.Millisecond {
		t.Errorf("delivery at %v, want 3ms", at)
	}
	// A later message to an idle node pays only wire + service again.
	ps[0].env.Send(1, testMsg{kind: "x"})
	w.Run()
	if at != 13*sim.Millisecond {
		t.Errorf("second delivery at %v, want 13ms", at)
	}
}

func TestNegativeProcessingDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	network.NewTiming(2, network.Constant{}, -1)
}
