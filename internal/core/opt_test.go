package core

import (
	"reflect"
	"testing"

	"mralloc/internal/explore"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/wire"
)

// TestAggregationOneBatchPerDestination pins the §4.2.2 invariant: a
// single activation buffering several requests to one destination must
// emit exactly one wire message.
func TestAggregationOneBatchPerDestination(t *testing.T) {
	h := newTimed(2, 4, WithoutLoan())
	// Node 1 requests three resources, all owned by node 0: the three
	// ReqCnt must travel in one reqBatch.
	h.at(0.1, func() { h.Request(1, ids(4, 0, 1, 2)) })
	h.RunUntil(sim.FromMillis(0.5)) // sent, not yet delivered
	if got := h.Stats().ByKind["LASS.Request"]; got != 1 {
		t.Fatalf("sent %d request messages, want 1 aggregated batch", got)
	}
	h.Run()
	if h.nodes[1].st != stInCS {
		t.Fatalf("node1 state %v", h.nodes[1].st)
	}
	h.Release(1)
}

// TestNoAggregationSplitsBatches is the ablation counterpart: with
// aggregation disabled the same activation emits one message per item.
func TestNoAggregationSplitsBatches(t *testing.T) {
	h := newTimed(2, 4, Options{DisableAggregation: true})
	h.at(0.1, func() { h.Request(1, ids(4, 0, 1, 2)) })
	h.RunUntil(sim.FromMillis(0.5))
	if got := h.Stats().ByKind["LASS.Request"]; got != 3 {
		t.Fatalf("sent %d request messages, want 3 unaggregated", got)
	}
	h.Run()
	h.Release(1)
}

// TestShortcutRewiresFather pins §4.6.2(1): after a Counter reply the
// requester's father pointer must aim at the replier (the token holder),
// so the follow-up ReqRes travels one hop.
func TestShortcutRewiresFather(t *testing.T) {
	run := func(disable bool) network.NodeID {
		h := newTimed(3, 2, Options{DisableShortcut: disable})
		// Move token r1 to node 2 so node 1's father pointer (still
		// node 0) is stale.
		h.at(0, func() { h.Request(2, ids(2, 1)) })
		h.at(5, func() { h.Release(2) })
		// Node 2 holds r1 inside a CS so it answers ReqCnt with a
		// Counter instead of the whole token.
		h.at(10, func() { h.Request(2, ids(2, 1)) })
		// Node 1 asks for {r0, r1}: the r1 counter comes from node 2.
		h.at(20, func() { h.Request(1, ids(2, 0, 1)) })
		h.RunUntil(sim.FromMillis(30))
		father := h.nodes[1].tokDir[1]
		h.Run()
		if h.nodes[2].st == stInCS {
			h.Release(2)
		}
		h.Run()
		if h.nodes[1].st == stInCS {
			h.Release(1)
		}
		return father
	}
	if got := run(false); got != 2 {
		t.Fatalf("with shortcut, father = s%d, want s2", got)
	}
	if got := run(true); got != 0 {
		t.Fatalf("without shortcut, father = s%d, want the stale s0", got)
	}
}

// TestLateHintLeavesNewerPointer pins deviation 6's version test: a
// hint from an ex-holder that arrives after the token moved on names an
// older holding than the receiver's father pointer, which it must leave
// alone. Taken, it would aim the pointer back at the ex-holder, whose
// own pointer may lead back here: a cycle no request leaves.
func TestLateHintLeavesNewerPointer(t *testing.T) {
	const n, m = 3, 2
	f := newWorld(n, m, WithoutLoan())
	// r0 goes 0 → 1 → 2 → 1, at versions 1, 2 and 3.
	for _, site := range []int{1, 2, 1} {
		f.acquire(t, site, ids(m, 0))
		f.release(site)
	}
	x := f.nodes[2]
	want := tokVer{Ver: 3}
	if x.tokDir[0] != 1 || x.ver[0] != want {
		t.Fatalf("set-up: s2 names s%d at %+v, want s1 at %+v", x.tokDir[0], x.ver[0], want)
	}
	// What site 0 could have sent while it held r0 at version 0, at
	// the start, arriving only now.
	x.Deliver(0, &reqBatch{Hints: []hint{{R: 0, V: tokVer{}}}})
	if x.tokDir[0] != 1 || x.ver[0] != want {
		t.Errorf("a late hint moved s2's pointer to s%d at %+v, want s1 at %+v", x.tokDir[0], x.ver[0], want)
	}
	f.acquire(t, 2, ids(m, 0))
	if got := x.tok[0].version(); got != (tokVer{Ver: 4}) {
		t.Errorf("r0 reached s2 at %+v, want its fourth transfer", got)
	}
}

// relayCarriers are the two record kinds a relay rides in, each
// carrying nothing but the relays given.
var relayCarriers = []struct {
	kind string
	with func([]relay) network.Message
}{
	{"request", func(r []relay) network.Message { return &reqBatch{Relay: r} }},
	{"response", func(r []relay) network.Message { return &respBatch{Relay: r} }},
}

// TestLateRelayLeavesNewerPointer pins deviation 7's version test, in
// both record kinds: a relay is a holding learned second hand, so it
// may arrive long after the token moved on. Older than what the
// receiver's pointer names, it must leave the pointer alone: taken, it
// would aim the pointer at a site whose own pointer leads back here.
func TestLateRelayLeavesNewerPointer(t *testing.T) {
	for _, c := range relayCarriers {
		t.Run(c.kind, func(t *testing.T) {
			const n, m = 3, 2
			f := worldOf(withRing(WithoutLoan(), 1), n, m)
			// r0 goes 0 → 1 → 0 → 2 → 1, at versions 1 to 4.
			for _, site := range []int{1, 0, 2, 1} {
				f.acquire(t, site, ids(m, 0))
				f.release(site)
			}
			x, want := f.nodes[2], tokVer{Ver: 4}
			if x.tokDir[0] != 1 || x.ver[0] != want {
				t.Fatalf("set-up: s2 names s%d at %+v, want s1 at %+v", x.tokDir[0], x.ver[0], want)
			}
			if s0 := f.nodes[0]; s0.tokDir[0] != 2 {
				t.Fatalf("set-up: s0 names s%d, want s2", s0.tokDir[0])
			}
			// "r0 is on its way to s0 at version 2", as s1's ring had it then.
			x.Deliver(1, c.with([]relay{{hint{0, tokVer{Ver: 2}}, 0}}))
			if x.tokDir[0] != 1 || x.ver[0] != want {
				t.Errorf("a late relay moved s2's pointer to s%d at %+v, want s1 at %+v", x.tokDir[0], x.ver[0], want)
			}
			f.acquire(t, 2, ids(m, 0))
			if got := x.tok[0].version(); got != (tokVer{Ver: 5}) {
				t.Errorf("r0 reached s2 at %+v, want its fifth transfer", got)
			}
		})
	}
}

// TestRelayNamingReceiverIgnored pins deviation 7's other test, in both
// record kinds: a relay that names its receiver says the token is on
// its way there. Taken before the token lands, it would point the
// receiver at itself, and a request routed along the pointer would go
// nowhere. The explorer's small shapes never deliver such a relay, so
// this test stands in.
func TestRelayNamingReceiverIgnored(t *testing.T) {
	for _, c := range relayCarriers {
		t.Run(c.kind, func(t *testing.T) {
			const n, m = 3, 2
			f := worldOf(withRing(WithoutLoan(), 1), n, m)
			f.acquire(t, 1, ids(m, 0))
			f.release(1) // r0 at s1, version 1
			x := f.nodes[2]
			if x.tokDir[0] != 0 || x.ver[0] != (tokVer{}) {
				t.Fatalf("set-up: s2 names s%d at %+v, want s0 at the genesis holding", x.tokDir[0], x.ver[0])
			}
			x.Deliver(1, c.with([]relay{{hint{0, tokVer{Ver: 2}}, 2}}))
			if x.tokDir[0] != 0 || x.ver[0] != (tokVer{}) {
				t.Errorf("a relay naming s2 moved its pointer to s%d at %+v", x.tokDir[0], x.ver[0])
			}
			if len(x.relays.ents) != 0 {
				t.Errorf("s2 keeps %v in its ring, want nothing", x.relays.ents)
			}
			f.acquire(t, 2, ids(m, 0))
			if got := x.tok[0].version(); got != (tokVer{Ver: 2}) {
				t.Errorf("r0 reached s2 at %+v, want its second transfer", got)
			}
		})
	}
}

// TestRelayCodecChecksHoldings: in both record kinds a relay survives
// the codec, and the decoder refuses one that names a site outside the
// cluster or a negative version — taken, either would aim a father
// pointer at no holding at all.
func TestRelayCodecChecksHoldings(t *testing.T) {
	const n, m = 4, 8
	for _, c := range relayCarriers {
		t.Run(c.kind, func(t *testing.T) {
			for _, x := range []struct {
				name string
				r    relay
				ok   bool
			}{
				{"holding", relay{hint{5, tokVer{Epoch: 1, Ver: 3}}, 2}, true},
				{"site outside", relay{hint{5, tokVer{Ver: 3}}, n}, false},
				{"negative epoch", relay{hint{5, tokVer{Epoch: -1, Ver: 3}}, 2}, false},
				{"negative version", relay{hint{5, tokVer{Ver: -3}}, 2}, false},
			} {
				enc, err := wire.Append(nil, c.with([]relay{x.r}))
				if err != nil {
					t.Fatal(err)
				}
				got, err := wire.DecodeFor(enc, n, m)
				if !x.ok {
					if err == nil {
						t.Errorf("%s: %+v decoded", x.name, x.r)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", x.name, err)
				}
				if b := asBatch(got); len(b.Relay) != 1 || b.Relay[0] != x.r {
					t.Errorf("%s: decoded %v, want [%v]", x.name, b.Relay, x.r)
				}
			}
		})
	}
}

// TestForwardStopKeepsRequestLocal pins §4.6.2(2): a non-owner in
// waitCS with a higher-priority pending request for r must not forward
// a ReqRes for r — it stores it and replays it when the token arrives.
func TestForwardStopKeepsRequestLocal(t *testing.T) {
	h := newTimed(3, 2, WithoutLoan())
	nd := h.nodes[1]
	// Put node 1 into waitCS for r0 with a known small mark, without
	// owning it (node 0 keeps the token busy in a CS).
	h.at(0, func() { h.Request(0, ids(2, 0, 1)) }) // immediate CS
	h.at(5, func() { h.Request(1, ids(2, 0, 1)) })
	h.at(10, func() {
		if nd.st != stWaitCS {
			t.Fatalf("node1 state %v", nd.st)
		}
		// Deliver, out of band, a worse-priority ReqRes for r0 from
		// node 2 with node 1's father (node 0) already visited: the
		// §4.2.1 rule alone would stop it; the §4.6.2 rule must stop
		// it even when the father was NOT visited.
		before := h.Stats().Total
		nd.Deliver(2, &reqBatch{
			Visited: []network.NodeID{2},
			Reqs: []request{{
				Kind: reqRes, R: 0, Init: 2, ID: 1, Mark: nd.myMark + 100,
			}},
		})
		if got := h.Stats().Total - before; got != 0 {
			t.Fatalf("forwarded %d messages, want 0 (forward stop)", got)
		}
		if len(nd.pending[0].reqs) != 1 {
			t.Fatalf("pendingReq = %v, want the stored request", nd.pending[0].reqs)
		}
	})
	h.at(20, func() { h.Release(0) })
	h.Run()
	// Node 1 got the tokens, entered CS; on its release the replayed
	// request from node 2 must have reached the queue and the token
	// must flow to node 2 (which never even sent a proper request —
	// the replay is its only trace; it will be in waitCS... it is not
	// actually requesting, so the token just lands there).
	if nd.st != stInCS {
		t.Fatalf("node1 state %v", nd.st)
	}
	tok := nd.tok[0]
	if !tok.Queue.contains(2, 1) {
		t.Fatalf("replayed request missing from queue: %v", tok.Queue)
	}
	h.Release(1)
}

// TestVisitedSetStopsForwarding pins §4.2.1: a request whose next hop
// is already in its visited set is stored, not forwarded (the token is
// heading to a site that already has a pendingReq copy).
func TestVisitedSetStopsForwarding(t *testing.T) {
	h := newTimed(3, 2, WithoutLoan())
	nd := h.nodes[1] // father for everything is node 0
	before := h.Stats().Total
	nd.Deliver(2, &reqBatch{
		Visited: []network.NodeID{2, 0}, // node 0 = nd's father, visited
		Reqs:    []request{{Kind: reqRes, R: 0, Init: 2, ID: 1, Mark: 1}},
	})
	if got := h.Stats().Total - before; got != 0 {
		t.Fatalf("forwarded %d messages despite visited father", got)
	}
	if len(nd.pending[0].reqs) != 1 {
		t.Fatal("request not stored in local history")
	}
	h.Run()

	// One flush fanning out to three destinations, each of which
	// forwards: every batch owns its visited set, so the three sets the
	// next hop sees are {origin, that forwarder} — none of them has
	// picked up a sibling's entry.
	f := newWorld(5, 4, WithoutLoan())
	origin := f.nodes[4]
	for r, father := range []network.NodeID{1, 2, 3} {
		origin.tokDir[r] = father // stale pointers to three different sites
	}
	f.Request(4, ids(4, 0, 1, 2))
	if len(f.InFlight()) != 3 {
		t.Fatalf("request fanned out to %d destinations, want 3", len(f.InFlight()))
	}
	// The three non-owners each forward to node 0: hold what reaches it.
	f.Drain(func(x explore.Msg) bool { return x.To == 0 })
	if len(f.InFlight()) != 3 {
		t.Fatalf("%d batches forwarded, want 3", len(f.InFlight()))
	}
	for i, x := range f.InFlight() {
		got := x.M.(*reqBatch).Visited
		if want := []network.NodeID{4, x.From}; x.To != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("forwarded batch %d (s%d→s%d): visited %v, want %v", i, x.From, x.To, got, want)
		}
	}
	f.Drain(nil)
	if !f.InCS(4) {
		t.Fatal("fan-out request never granted")
	}
}

// TestPendingPruneDropsObsolete fills a node's local history past the
// prune threshold with requests its stale stamps can prove obsolete;
// the history must stay bounded, and the loans that survive the prune
// must still find their own missing sets.
func TestPendingPruneDropsObsolete(t *testing.T) {
	h := newTimed(3, 2, WithLoan())
	nd := h.nodes[1]
	// Node 1 saw r0's token leave with stamps that say: node 2's
	// requests up to id 2^40 are all served.
	gone := newToken(0, 3)
	gone.LastCS[2] = 1 << 40
	nd.keepStale(gone)
	// Two live loans of node 0 first, an obsolete loan of node 2
	// between them: the prune removes the middle set with its request.
	first, second := ids(2, 0), ids(2, 0, 1)
	nd.storePending(&request{Kind: reqLoan, R: 0, Init: 0, ID: 1, Mark: 1}, first)
	nd.storePending(&request{Kind: reqLoan, R: 0, Init: 2, ID: 1, Mark: 1}, ids(2, 1))
	nd.storePending(&request{Kind: reqLoan, R: 0, Init: 0, ID: 2, Mark: 1}, second)
	for i := 0; i < pruneThreshold+50; i++ {
		nd.storePending(&request{Kind: reqRes, R: 0, Init: 2, ID: int64(i + 2), Mark: 1}, resource.Set{})
	}
	hist := nd.pending[0]
	if got := len(hist.reqs); got > pruneThreshold+1 {
		t.Fatalf("history grew to %d, prune did not run", got)
	}
	if len(hist.miss) != 2 || !hist.miss[0].Equal(first) || !hist.miss[1].Equal(second) {
		t.Fatalf("sets after the prune: %v, want node 0's two", hist.miss)
	}
	if hist.reqs[0].ID != 1 || hist.reqs[1].ID != 2 || hist.reqs[1].Init != 0 {
		t.Fatalf("requests after the prune: %v, want node 0's two loans first", hist.reqs[:2])
	}
}

// TestStaleCounterIgnored pins hardening deviation 1: a Counter reply
// for a previous request id must not corrupt the current vector.
func TestStaleCounterIgnored(t *testing.T) {
	h := newTimed(2, 2, WithoutLoan())
	nd := h.nodes[1]
	h.at(0, func() { h.Request(0, ids(2, 0, 1)) })
	h.at(5, func() { h.Request(1, ids(2, 0, 1)) })
	h.at(10, func() {
		if nd.st != stWaitCS {
			t.Fatalf("state %v", nd.st)
		}
		was := nd.myVector[0]
		nd.Deliver(0, &respBatch{Counters: []counterVal{{R: 0, Val: 999, ID: nd.curID - 1}}})
		if nd.myVector[0] != was {
			t.Fatal("stale counter accepted")
		}
		// Same id but the counter is no longer needed: also ignored.
		nd.Deliver(0, &respBatch{Counters: []counterVal{{R: 0, Val: 999, ID: nd.curID}}})
		if nd.myVector[0] != was {
			t.Fatal("unneeded counter accepted")
		}
	})
	h.at(20, func() { h.Release(0) })
	h.Run()
	h.Release(1)
}
