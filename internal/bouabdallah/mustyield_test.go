package bouabdallah

import (
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// The owed-token inversion. A site h that gets the control token while
// holding a token the control token already promised to an earlier
// registrant w (Last[r] = w, w's INQUIRE still in flight) must NOT
// count r as satisfied: w precedes h in r's chain, so h has to yield to
// w's INQUIRE and re-acquire behind it. Entering the critical section
// on the owed token lets w's INQUIRE pull the token out from under a
// running CS — two sites end up inside the CS on one resource.
//
// The race needs w's direct INQUIRE (w→h) to arrive after the control
// token reached h through a third site (w→z→h): impossible under
// uniform per-link latency (one hop beats two), which is why neither
// the simulation battery nor symmetric-delay fabrics ever caught it —
// the adaptive flush delay was the first asymmetric-delay fabric. This
// test scripts that interleaving deterministically, FIFO per ordered
// pair respected throughout.

// scriptMsg is one in-flight message of the scripted network.
type scriptMsg struct {
	from, to network.NodeID
	m        network.Message
}

// scriptNet delivers messages by hand, preserving FIFO per ordered
// pair: deliver(to) always hands over the oldest queued message per
// origin chosen, and hold lets the script keep one message in flight.
type scriptNet struct {
	t     *testing.T
	nodes []alg.Node
	queue []scriptMsg
	inCS  []bool // per node, toggled by Granted/Release bookkeeping
}

type scriptEnv struct {
	net  *scriptNet
	id   network.NodeID
	n, m int
}

func (e *scriptEnv) ID() network.NodeID { return e.id }
func (e *scriptEnv) N() int             { return e.n }
func (e *scriptEnv) M() int             { return e.m }
func (e *scriptEnv) Now() sim.Time      { return 0 }
func (e *scriptEnv) Send(to network.NodeID, m network.Message) {
	e.net.queue = append(e.net.queue, scriptMsg{from: e.id, to: to, m: m})
}
func (e *scriptEnv) Granted() { e.net.inCS[e.id] = true }

// deliverNext delivers the oldest queued message matching keep==false.
// keep lets the script delay one specific message (a slow link); all
// other traffic flows in send order, so FIFO per pair holds.
func (s *scriptNet) deliverWhere(pred func(scriptMsg) bool) bool {
	for i, msg := range s.queue {
		if !pred(msg) {
			continue
		}
		// FIFO per ordered pair: nothing older on the same pair may
		// still be queued.
		for _, prev := range s.queue[:i] {
			if prev.from == msg.from && prev.to == msg.to {
				s.t.Fatalf("script would reorder %v→%v traffic", msg.from, msg.to)
			}
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.nodes[msg.to].Deliver(msg.from, msg.m)
		return true
	}
	return false
}

// drain delivers everything queued except messages matching hold.
func (s *scriptNet) drain(hold func(scriptMsg) bool) {
	for s.deliverWhere(func(m scriptMsg) bool { return hold == nil || !hold(m) }) {
	}
}

func isInquire(m scriptMsg) bool { _, ok := m.m.(inquireMsg); return ok }

func TestMustYieldTokenNotUsableUntilYielded(t *testing.T) {
	const n, m = 3, 2
	const h, z, w = 0, 1, 2 // h re-registers; z relays the CT; w precedes h
	nodes := NewFactory()(n, m)
	net := &scriptNet{t: t, nodes: nodes, inCS: make([]bool, n)}
	for i, nd := range nodes {
		nd.Attach(&scriptEnv{net: net, id: network.NodeID(i), n: n, m: m})
	}
	rOnly := resource.FromIDs(m, 0)

	// h acquires and releases r: the resource token now lives at h,
	// outside the control token, with Last[r]=h.
	nodes[h].Request(rOnly.Clone())
	net.drain(nil)
	if !net.inCS[h] {
		t.Fatal("setup: h never entered its first CS")
	}
	net.inCS[h] = false
	nodes[h].Release()
	net.drain(nil)

	// w registers for r: takes the CT (h→w via NT), records itself as
	// Last[r], and sends its INQUIRE to h — which we hold in flight
	// (the slow link).
	nodes[w].Request(rOnly.Clone())
	net.drain(isInquire)
	if got := len(net.queue); got != 1 {
		t.Fatalf("after w's registration, %d messages in flight, want just w's INQUIRE", got)
	}

	// z registers for the other resource: the CT travels w→z and z is
	// served from it directly.
	nodes[z].Request(resource.FromIDs(m, 1))
	net.drain(isInquire)
	if !net.inCS[z] {
		t.Fatal("z did not enter on the uncontended resource")
	}

	// h asks for r again: the CT arrives z→h (two fast hops beat w's
	// one slow one), h sees Last[r]=w and still holds r — the owed-token
	// case. h must NOT be granted: w precedes it in r's chain.
	nodes[h].Request(rOnly.Clone())
	net.drain(isInquire)
	if net.inCS[h] {
		t.Fatal("h entered its CS on a token already promised to w (owed-token inversion)")
	}

	// w's INQUIRE finally lands: h yields r to w; w enters, h waits.
	net.drain(nil)
	if !net.inCS[w] {
		t.Fatal("w never entered after its INQUIRE was answered")
	}
	if net.inCS[h] {
		t.Fatal("h and w are both inside the CS on r")
	}

	// w releases; h, registered behind w once it had yielded, gets the
	// token back along its own INQUIRE and finally enters.
	net.inCS[w] = false
	nodes[w].Release()
	net.drain(nil)
	if !net.inCS[h] {
		t.Fatal("h starved after yielding to w")
	}
}

// TestOwedTokenNotHandedToOvertakingInquire is the liveness twin of the
// inversion above. h holds r owed to w (w's INQUIRE in flight on a slow
// link) when it gets the control token again; q asks for r right after.
// Had h registered at once, q would have queued behind h, and q's
// INQUIRE to h — a different link from w's — could reach h first: h
// cannot tell the two apart, hands w's token to q, and w and h wait on
// each other forever with every later registrant queued behind them
// (the whole cluster wedges — what the TCP and delay-fabric stress
// tiers hit in one run out of six). h must sit the registration out
// until w's INQUIRE has landed.
func TestOwedTokenNotHandedToOvertakingInquire(t *testing.T) {
	const n, m = 4, 2
	const h, z, w, q = 0, 1, 2, 3 // z relays the CT past w's slow link, as above
	nodes := NewFactory()(n, m)
	net := &scriptNet{t: t, nodes: nodes, inCS: make([]bool, n)}
	for i, nd := range nodes {
		nd.Attach(&scriptEnv{net: net, id: network.NodeID(i), n: n, m: m})
	}
	r := resource.FromIDs(m, 0)
	slow := func(msg scriptMsg) bool { return isInquire(msg) && msg.from == w }

	// The token lives at h, outside the control token, Last[r]=h.
	nodes[h].Request(r.Clone())
	net.drain(nil)
	net.inCS[h] = false
	nodes[h].Release()
	net.drain(nil)

	// w registers (Last[r]=w); its INQUIRE to h stays in flight. z pulls
	// the CT off w for the other resource, so the CT can reach h without
	// anything overtaking on the w→h link. Then h and q ask for r, and
	// every other message is delivered.
	nodes[w].Request(r.Clone())
	net.drain(slow)
	nodes[z].Request(resource.FromIDs(m, 1))
	net.drain(slow)
	nodes[h].Request(r.Clone())
	net.drain(slow)
	nodes[q].Request(r.Clone())
	net.drain(slow)
	contenders := []int{h, w, q}
	for _, id := range contenders {
		if net.inCS[id] {
			t.Fatalf("site %d entered on a token owed to w", id)
		}
	}

	// w's INQUIRE lands: w first, then the other two, one at a time.
	net.drain(nil)
	var order []int
	for range contenders {
		in := -1
		for _, id := range contenders {
			if net.inCS[id] {
				if in >= 0 {
					t.Fatalf("sites %d and %d are both inside the CS on r", in, id)
				}
				in = id
			}
		}
		if in < 0 {
			t.Fatalf("nobody holds r after %v entered and released: the chain is wedged", order)
		}
		order = append(order, in)
		net.inCS[in] = false
		nodes[in].Release()
		net.drain(nil)
	}
	if order[0] != w {
		t.Fatalf("entry order %v, want w (site %d) first", order, w)
	}
}
