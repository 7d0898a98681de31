package naimitrehel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mralloc/internal/network"
	"mralloc/internal/sim"
)

// kind labels m for the harness's message count.
func kind(m Msg) string {
	if m.Type == MsgRequest {
		return "NT.Request"
	}
	return "NT.Token"
}

// harness runs one NT instance on a sim.Engine: each message is
// delivered at the instant the timing rule gives it.
type harness struct {
	eng   *sim.Engine
	rule  *network.Timing
	msgs  network.Stats
	insts []*Instance
	inCS  network.NodeID // current CS occupant, None if free
	count int            // completed critical sections
	order []network.NodeID
	t     *testing.T
}

func newHarness(t *testing.T, n int, hold sim.Time) *harness {
	h := &harness{eng: sim.New(), inCS: network.None, t: t, msgs: network.Stats{ByKind: map[string]int64{}}}
	h.rule = network.NewTiming(n, network.Constant{D: sim.Millisecond}, 0)
	h.insts = make([]*Instance, n)
	for i := 0; i < n; i++ {
		id := network.NodeID(i)
		send := func(to network.NodeID, m Msg) { h.send(id, to, m) }
		granted := func(any) {
			if h.inCS != network.None {
				t.Fatalf("s%d entered CS while s%d inside (mutual exclusion)", id, h.inCS)
			}
			h.inCS = id
			h.order = append(h.order, id)
			h.eng.After(hold, func() {
				h.inCS = network.None
				h.count++
				h.insts[id].Release(nil)
			})
		}
		h.insts[i] = New(id, 0, nil, send, granted)
	}
	return h
}

// send counts m and schedules its delivery to site to.
func (h *harness) send(from, to network.NodeID, m Msg) {
	h.msgs.Total++
	h.msgs.ByKind[kind(m)]++
	h.eng.At(h.rule.Due(h.eng.Now(), from, to), func() { h.insts[to].Deliver(m) })
}

func TestIdleRootGrantsImmediately(t *testing.T) {
	h := newHarness(t, 4, sim.Millisecond)
	h.insts[0].Request()
	if !h.insts[0].InCS() {
		t.Fatal("idle root did not enter CS synchronously")
	}
	h.eng.Run()
	if h.count != 1 {
		t.Fatalf("count = %d", h.count)
	}
}

func TestTokenTravelsToRequester(t *testing.T) {
	h := newHarness(t, 4, sim.Millisecond)
	h.insts[2].Request()
	h.eng.Run()
	if h.count != 1 || len(h.order) != 1 || h.order[0] != 2 {
		t.Fatalf("order = %v", h.order)
	}
	if !h.insts[2].HasToken() || h.insts[0].HasToken() {
		t.Fatal("token did not move to the last requester")
	}
}

func TestAllNodesRequestOnce(t *testing.T) {
	const n = 8
	h := newHarness(t, n, sim.Millisecond)
	for i := 0; i < n; i++ {
		i := i
		h.eng.At(sim.Time(i)*sim.Microsecond, func() { h.insts[i].Request() })
	}
	h.eng.Run()
	if h.count != n {
		t.Fatalf("completed %d/%d critical sections", h.count, n)
	}
	seen := map[network.NodeID]bool{}
	for _, id := range h.order {
		if seen[id] {
			t.Fatalf("s%d served twice: %v", id, h.order)
		}
		seen[id] = true
	}
}

func TestRepeatedRandomRequests(t *testing.T) {
	prop := func(seed int64) bool {
		const n, rounds = 6, 5
		h := newHarness(t, n, 500*sim.Microsecond)
		r := rand.New(rand.NewSource(seed))
		// Each node issues `rounds` requests at random instants; a node
		// re-requests only after its previous CS completed, which the
		// harness enforces by scheduling the next request from release.
		var scheduleNode func(id network.NodeID, remaining int)
		scheduleNode = func(id network.NodeID, remaining int) {
			if remaining == 0 {
				return
			}
			h.eng.After(sim.Time(r.Intn(5000))*sim.Microsecond, func() {
				if h.insts[id].Requesting() || h.insts[id].InCS() {
					// Previous cycle unfinished; retry shortly after.
					scheduleNode(id, remaining)
					return
				}
				h.insts[id].Request()
				scheduleNode(id, remaining-1)
			})
		}
		for i := 0; i < n; i++ {
			scheduleNode(network.NodeID(i), rounds)
		}
		h.eng.Run()
		return h.count == n*rounds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExactlyOneTokenAlways(t *testing.T) {
	const n = 8
	h := newHarness(t, n, sim.Millisecond)
	for i := n - 1; i >= 0; i-- {
		i := i
		h.eng.At(sim.Time(i)*sim.Microsecond, func() { h.insts[i].Request() })
	}
	for h.eng.Step() {
		holders := 0
		for _, x := range h.insts {
			if x.HasToken() {
				holders++
			}
		}
		if holders > 1 {
			t.Fatal("two token holders")
		}
	}
	if h.count != n {
		t.Fatalf("count = %d", h.count)
	}
}

func TestPayloadRidesToken(t *testing.T) {
	h := newHarness(t, 3, sim.Millisecond)
	// Rebuild instance callbacks so the payload is visible: root starts
	// with payload 100, each CS adds 1 and releases.
	var values []int
	for i := 0; i < 3; i++ {
		id := network.NodeID(i)
		send := func(to network.NodeID, m Msg) { h.send(id, to, m) }
		granted := func(p any) {
			v := p.(int)
			values = append(values, v)
			h.eng.After(sim.Millisecond, func() { h.insts[id].Release(v + 1) })
		}
		h.insts[i] = New(id, 0, 100, send, granted)
	}
	for i := 0; i < 3; i++ {
		i := i
		h.eng.At(sim.Time(i)*sim.Microsecond, func() { h.insts[i].Request() })
	}
	h.eng.Run()
	if len(values) != 3 || values[0] != 100 || values[1] != 101 || values[2] != 102 {
		t.Fatalf("payload chain = %v", values)
	}
}

func TestMessageComplexityIsModest(t *testing.T) {
	const n = 16
	h := newHarness(t, n, 100*sim.Microsecond)
	for i := 0; i < n; i++ {
		i := i
		h.eng.At(sim.Time(i*50)*sim.Microsecond, func() { h.insts[i].Request() })
	}
	h.eng.Run()
	st := h.msgs
	// Worst case is O(N) per request; the dynamic tree keeps the
	// average well below that. Allow a generous bound.
	if st.Total > int64(3*n*n) {
		t.Fatalf("%d messages for %d requests", st.Total, n)
	}
	if st.ByKind["NT.Token"] != n-1 {
		t.Fatalf("token transfers = %d, want %d", st.ByKind["NT.Token"], n-1)
	}
}

func TestMisusePanics(t *testing.T) {
	h := newHarness(t, 2, sim.Millisecond)
	h.insts[0].Request() // enters CS synchronously
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double request did not panic")
			}
		}()
		h.insts[0].Request()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release outside CS did not panic")
			}
		}()
		h.insts[1].Release(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unsolicited token did not panic")
			}
		}()
		h.insts[1].Deliver(Msg{Type: MsgToken})
	}()
}

func TestMsgString(t *testing.T) {
	if got := (Msg{Type: MsgRequest, Requester: 3}).String(); got != "NT.Request(from s3)" {
		t.Errorf("String = %q", got)
	}
	if got := (Msg{Type: MsgToken}).String(); got != "NT.Token" {
		t.Errorf("String = %q", got)
	}
}
