package core

import (
	"testing"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// scriptHarness drives Nodes directly (no workload generator) so tests
// can replay the paper's figures step by step and inspect internals.
type scriptHarness struct {
	t      *testing.T
	eng    *sim.Engine
	nw     *network.Network
	nodes  []*Node
	grants []network.NodeID
	m      int
}

type scriptEnv struct {
	h  *scriptHarness
	id network.NodeID
}

func (e *scriptEnv) ID() network.NodeID { return e.id }
func (e *scriptEnv) N() int             { return len(e.h.nodes) }
func (e *scriptEnv) M() int             { return e.h.m }
func (e *scriptEnv) Now() sim.Time      { return e.h.eng.Now() }
func (e *scriptEnv) Send(to network.NodeID, m network.Message) {
	e.h.nw.Send(e.id, to, m)
}
func (e *scriptEnv) Granted() {
	e.h.grants = append(e.h.grants, e.id)
}

func newScript(t *testing.T, n, m int, opt Options) *scriptHarness {
	h := &scriptHarness{t: t, eng: sim.New(), m: m}
	h.nw = network.New(h.eng, n, network.Constant{D: 600 * sim.Microsecond})
	h.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := &Node{opt: opt, mark: opt.mark()}
		h.nodes[i] = nd
	}
	for i := 0; i < n; i++ {
		id := network.NodeID(i)
		h.nodes[i].Attach(&scriptEnv{h: h, id: id})
		h.nw.Bind(id, h.nodes[i].Deliver)
	}
	return h
}

func (h *scriptHarness) at(ms float64, fn func()) {
	h.eng.At(sim.FromMillis(ms), fn)
}

func (h *scriptHarness) grantedSince(from int) []network.NodeID {
	return h.grants[from:]
}

func ids(m int, rs ...int) resource.Set {
	s := resource.NewSet(m)
	for _, r := range rs {
		s.Add(resource.ID(r))
	}
	return s
}

// TestFigure3Scenario replays the execution example of Figure 3 with
// node0/1/2 standing for the paper's s1/s2/s3 and resources 0/1 for
// r_red/r_blue. After a short setup phase establishing the paper's
// initial configuration (node0 holds red, node2 holds blue), node1
// requests both resources while the other two are in critical section;
// it must obtain both counter values, queue two ReqRes, receive both
// tokens at the releases, and end as root of both trees (Figure 3c).
func TestFigure3Scenario(t *testing.T) {
	h := newScript(t, 3, 2, WithoutLoan())
	const red, blue = 0, 1

	// Setup: move the blue token to node2 (node0 owns both initially).
	h.at(0, func() { h.nodes[2].Request(ids(2, blue)) })
	h.at(5, func() { h.nodes[2].Release() })

	// Initial configuration of Figure 3(a): node0 in CS on red, node2
	// in CS on blue.
	h.at(10, func() { h.nodes[0].Request(ids(2, red)) })
	h.at(11, func() { h.nodes[2].Request(ids(2, blue)) })
	h.at(12, func() {
		if h.nodes[0].st != stInCS || h.nodes[2].st != stInCS {
			t.Fatalf("setup failed: states %v %v", h.nodes[0].st, h.nodes[2].st)
		}
	})

	// Figure 3(b): node1 asks for both resources.
	base := 0
	h.at(15, func() {
		base = len(h.grants)
		h.nodes[1].Request(ids(2, red, blue))
	})

	// Counters must be collected while the holders stay in CS.
	h.at(25, func() {
		nd := h.nodes[1]
		if nd.st != stWaitCS {
			t.Fatalf("node1 state %v, want waitCS", nd.st)
		}
		if nd.myVector[red] == 0 || nd.myVector[blue] == 0 {
			t.Fatalf("node1 vector %v, want both counters", nd.myVector)
		}
		if len(h.grantedSince(base)) != 0 {
			t.Fatal("node1 granted while holders in CS (safety)")
		}
	})

	h.at(40, func() { h.nodes[0].Release() })
	h.at(45, func() { h.nodes[2].Release() })

	h.eng.Run()
	if got := h.grantedSince(base); len(got) != 1 || got[0] != 1 {
		t.Fatalf("grants after request: %v, want [1]", got)
	}
	nd := h.nodes[1]
	if nd.st != stInCS {
		t.Fatalf("node1 state %v, want inCS", nd.st)
	}
	// Figure 3(c): node1 is root of both trees.
	if !nd.owned.Has(red) || !nd.owned.Has(blue) {
		t.Fatalf("node1 owns %v, want both", nd.owned)
	}
	if h.nodes[0].tokDir[red] != 1 {
		t.Fatalf("node0 father for red = %d, want 1", h.nodes[0].tokDir[red])
	}
	if h.nodes[2].tokDir[blue] != 1 {
		t.Fatalf("node2 father for blue = %d, want 1", h.nodes[2].tokDir[blue])
	}
	h.nodes[1].Release()
}

// TestLoanScenario builds the §4.5 situation deterministically: node1
// (the lender) waits in waitCS owning r0 while r3 is stuck in node3's
// long critical section; node0 (the borrower) reaches waitCS missing
// exactly r0 and asks for a loan. node1 must lend r0, node0 must run
// its critical section strictly before node3 releases, and the token
// must return to node1 afterwards.
func TestLoanScenario(t *testing.T) {
	h := newScript(t, 4, 4, WithLoan())

	// A: node1 acquires r0 and r3 once so it ends up owning both.
	h.at(0, func() { h.nodes[1].Request(ids(4, 0, 3)) })
	h.at(5, func() { h.nodes[1].Release() })

	// B: node3 takes r3 into a long critical section (until t=200).
	h.at(10, func() { h.nodes[3].Request(ids(4, 3)) })

	// C: node1 re-requests {r0, r3}: owns r0, waits on r3 → lender.
	h.at(20, func() { h.nodes[1].Request(ids(4, 0, 3)) })

	// D: park r1 at idle node2 so the borrower's second counter comes
	// back as a direct token (order matters; see package tests doc).
	// The second cycle bumps r1's counter so the borrower's mark ends
	// strictly above the lender's — the loan path, not a priority yield.
	h.at(30, func() { h.nodes[2].Request(ids(4, 1)) })
	h.at(35, func() { h.nodes[2].Release() })
	h.at(38, func() { h.nodes[2].Request(ids(4, 1)) })
	h.at(42, func() { h.nodes[2].Release() })

	// E: node0 requests {r0, r1}: Counter for r0 from node1 arrives
	// first, token r1 from node2 second → waitCS with missing {r0} →
	// ReqLoan(r0) → node1 lends.
	var grantedAt sim.Time
	base := 0
	h.at(50, func() {
		base = len(h.grants)
		h.nodes[0].Request(ids(4, 0, 1))
	})
	h.at(80, func() {
		got := h.grantedSince(base)
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("borrower not granted via loan: grants=%v, node0 state %v, node1 lent=%v asks=%d",
				got, h.nodes[0].st, h.nodes[1].lent, h.nodes[0].Counters().LoanAsks)
		}
		grantedAt = h.eng.Now()
		if h.nodes[1].Counters().LoansGranted != 1 {
			t.Fatalf("lender counters = %+v", h.nodes[1].Counters())
		}
		if !h.nodes[1].lent.Has(0) {
			t.Fatalf("lender lent set = %v", h.nodes[1].lent)
		}
		tok := h.nodes[0].tok[0]
		if tok.Lender != 1 {
			t.Fatalf("borrowed token lender = %d, want 1", tok.Lender)
		}
		// The borrower finishes and the token goes home.
		h.nodes[0].Release()
	})
	h.at(100, func() {
		if !h.nodes[1].owned.Has(0) || !h.nodes[1].lent.Empty() {
			t.Fatalf("token r0 did not return: owned=%v lent=%v",
				h.nodes[1].owned, h.nodes[1].lent)
		}
		if h.nodes[1].tok[0].Lender != network.None {
			t.Fatal("returned token still marked lent")
		}
	})

	// node3 finally releases; node1 completes its own CS.
	h.at(200, func() { h.nodes[3].Release() })

	h.eng.Run()
	if grantedAt == 0 || grantedAt >= sim.FromMillis(200) {
		t.Fatalf("loan did not beat the long CS: borrower granted at %v", grantedAt)
	}
	if h.nodes[1].st != stInCS {
		t.Fatalf("lender never completed: state %v", h.nodes[1].st)
	}
	h.nodes[1].Release()
	h.eng.Run()
}

// TestSingleOwnedImmediate: a single-resource request on a token the
// site already owns enters the CS synchronously with zero messages.
func TestSingleOwnedImmediate(t *testing.T) {
	h := newScript(t, 2, 2, WithoutLoan())
	h.at(0, func() {
		h.nodes[0].Request(ids(2, 1)) // node0 owns everything initially
		if h.nodes[0].st != stInCS {
			t.Fatalf("state %v, want inCS", h.nodes[0].st)
		}
	})
	h.eng.Run()
	if h.nw.Stats().Total != 0 {
		t.Fatalf("owned single request sent %d messages", h.nw.Stats().Total)
	}
	h.nodes[0].Release()
}

// TestCounterServiceDuringCS: a token holder in its critical section
// still answers ReqCnt with a Counter (the counter mechanism is
// independent of exclusive access, §3.3.1).
func TestCounterServiceDuringCS(t *testing.T) {
	h := newScript(t, 2, 2, WithoutLoan())
	h.at(0, func() { h.nodes[0].Request(ids(2, 0, 1)) }) // immediate CS
	h.at(5, func() { h.nodes[1].Request(ids(2, 0, 1)) })
	h.at(10, func() {
		nd := h.nodes[1]
		if nd.st != stWaitCS {
			t.Fatalf("node1 state %v, want waitCS (counters served during CS)", nd.st)
		}
		if nd.myVector[0] == 0 || nd.myVector[1] == 0 {
			t.Fatalf("node1 vector %v", nd.myVector)
		}
		if len(h.grants) != 1 {
			t.Fatalf("grants %v", h.grants)
		}
	})
	h.at(20, func() { h.nodes[0].Release() })
	h.eng.Run()
	if len(h.grants) != 2 || h.grants[1] != 1 {
		t.Fatalf("grants %v", h.grants)
	}
	h.nodes[1].Release()
}

// TestPriorityYield: a waitCS holder yields a token to a request with a
// smaller mark and queues itself (pseudo lines 179-181), and the token
// eventually comes back.
func TestPriorityYield(t *testing.T) {
	h := newScript(t, 3, 3, WithoutLoan())

	// Give node1 ownership of r0 (and r2, to keep it waiting later).
	h.at(0, func() { h.nodes[1].Request(ids(3, 0, 2)) })
	h.at(5, func() { h.nodes[1].Release() })

	// node2 takes r2 hostage for a long CS.
	h.at(10, func() { h.nodes[2].Request(ids(3, 2)) })

	// node1 requests {r0, r2}: owns r0 with local counters (small
	// marks), waits on r2 → waitCS holding r0.
	h.at(20, func() { h.nodes[1].Request(ids(3, 0, 2)) })

	// node0 requests {r0}: single fast path → node1 applies A with a
	// *fresh* (larger) counter, so node0 does NOT outrank node1...
	h.at(30, func() { h.nodes[0].Request(ids(3, 0)) })
	h.at(40, func() {
		if got := h.nodes[0].st; got != stWaitCS {
			t.Fatalf("node0 state %v", got)
		}
		// ...and node1 still holds r0 with node0 queued.
		if !h.nodes[1].owned.Has(0) {
			t.Fatal("node1 yielded r0 to a lower-priority request")
		}
		if !h.nodes[1].tok[0].Queue.contains(0, h.nodes[0].curID) {
			t.Fatalf("node0 not queued: %v", h.nodes[1].tok[0].Queue)
		}
	})

	// Release the hostage: node1 enters CS, then releases; r0 must flow
	// to node0.
	h.at(50, func() { h.nodes[2].Release() })
	h.at(60, func() {
		if h.nodes[1].st != stInCS {
			t.Fatalf("node1 state %v", h.nodes[1].st)
		}
		h.nodes[1].Release()
	})
	h.eng.Run()
	if h.nodes[0].st != stInCS {
		t.Fatalf("node0 state %v, want inCS after queue service", h.nodes[0].st)
	}
	if h.nodes[1].Counters().Yields != 0 {
		t.Fatalf("unexpected yield recorded: %+v", h.nodes[1].Counters())
	}
	h.nodes[0].Release()
}

// TestObsoleteRequestDiscarded: replaying a stale pendingReq copy after
// the requester's CS completed must not reinsert it anywhere — judged by
// the owner against the token, by everyone else against the stamps kept
// when the token left.
func TestObsoleteRequestDiscarded(t *testing.T) {
	tok := newToken(0, 3)
	tok.LastCS[2] = 4
	tok.LastReqC[2] = 6
	nd := newWorld(3, 2*tableChunk, WithoutLoan()).nodes[1]
	if nd.staleObsolete(&request{Kind: reqRes, R: 0, Init: 2, ID: 4}) {
		t.Fatal("a site the token never left calls a request obsolete")
	}
	nd.keepStale(tok)
	for _, c := range []struct {
		req  request
		want bool
		why  string
	}{
		{request{Kind: reqRes, Init: 2, ID: 4}, true, "ReqRes with id ≤ lastCS"},
		{request{Kind: reqRes, Init: 2, ID: 5}, false, "fresh ReqRes"},
		{request{Kind: reqLoan, Init: 2, ID: 4}, true, "ReqLoan with id ≤ lastCS"},
		{request{Kind: reqCnt, Init: 2, ID: 6}, true, "ReqCnt with id ≤ lastReqC"},
		{request{Kind: reqCnt, Init: 2, ID: 7}, false, "fresh ReqCnt"},
		{request{Kind: reqRes, Init: 1, ID: 1}, false, "a site with no stamp"},
	} {
		if got := tok.obsolete(&c.req); got != c.want {
			t.Errorf("%s: obsolete by the token = %v, want %v", c.why, got, c.want)
		}
		if got := nd.staleObsolete(&c.req); got != c.want {
			t.Errorf("%s: obsolete by the stale stamps = %v, want %v", c.why, got, c.want)
		}
	}
	// r1 shares r0's chunk and has all-zero stamps; the next chunk was
	// never made. Neither calls anything obsolete.
	for _, r := range []resource.ID{1, tableChunk} {
		if nd.staleObsolete(&request{Kind: reqRes, R: r, Init: 2, ID: 1}) {
			t.Errorf("r%d: obsolete by stamps of another resource", r)
		}
	}
}
