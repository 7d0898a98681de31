package core

import (
	"testing"

	"mralloc/internal/explore"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// Lease, regeneration and fencing tests run on a timed World
// (script_test.go): virtual time, constant 600µs latency, and explicit
// Tick scheduling stand in for the live runtime's clock.

// leaseOpts arms leases with a 10ms TTL (heartbeats every ~3.3ms).
func leaseOpts() Options {
	o := WithoutLoan()
	o.LeaseTTL = 10 * sim.Millisecond
	return o
}

// tickAll schedules a Tick for every node each everyMs in (0, untilMs],
// skipping crashed sites and nodes the alive filter (nil = all alive)
// rejects — the harness equivalent of live.Config.Tick plus crash
// simulation.
func (f *coreWorld) tickAll(everyMs, untilMs float64, alive func(i int) bool) {
	for t := everyMs; t <= untilMs; t += everyMs {
		f.at(t, func() {
			for i, nd := range f.nodes {
				if !f.sites[i].dead && (alive == nil || alive(i)) {
					nd.Tick(f.Now())
				}
			}
		})
	}
}

// crash makes node i disappear: its inbound messages are dropped and its
// clock stops. Its in-memory state survives for a later "resurrection"
// via revive.
func (f *coreWorld) crash(i int) { f.sites[i].dead = true }

func (f *coreWorld) revive(i int) { f.sites[i].dead = false }

// TestLeaseGatesEntry: with leases armed, even the genesis owner of
// every token may not enter its critical section before a heartbeat
// round establishes its leases — and must enter right after.
func TestLeaseGatesEntry(t *testing.T) {
	h := newTimed(2, 2, leaseOpts())
	h.tickAll(2, 30, nil)

	h.at(1, func() {
		h.Request(0, ids(2, 0, 1)) // owns both, but no lease yet
		if h.nodes[0].st == stInCS {
			t.Fatal("entered CS without any lease")
		}
		if !h.nodes[0].entryHeld {
			t.Fatal("entry not parked on the missing lease")
		}
	})
	// Resource 0 is self-stewarded (0 % 2), resource 1 is stewarded by
	// node 1: the first tick renews one locally and heartbeats the
	// other; the grant echo completes the pair one round-trip later.
	h.at(10, func() {
		if h.nodes[0].st != stInCS {
			t.Fatalf("state %v after heartbeat round, want inCS", h.nodes[0].st)
		}
		h.Release(0)
	})
	h.Run()
	if got := h.nodes[0].Counters(); got.Heartbeats == 0 {
		t.Fatalf("no heartbeat sent: %+v", got)
	}
	if got := h.nodes[1].Counters(); got.LeaseGrants == 0 {
		t.Fatalf("steward granted nothing: %+v", got)
	}
}

// TestLeaseRegenAfterCrash is the headline recovery scenario: a token
// dies with its holder, the steward regenerates it after the lease
// silence window, and a request wedged on the dead holder completes.
func TestLeaseRegenAfterCrash(t *testing.T) {
	h := newTimed(3, 3, leaseOpts())
	h.tickAll(2, 400, nil)

	// Move r0's token to node1 (steward of r0 is node0 = 0 % 3).
	h.at(5, func() { h.Request(1, ids(3, 0)) })
	h.at(20, func() {
		if h.nodes[1].st != stInCS {
			t.Fatalf("setup: node1 state %v", h.nodes[1].st)
		}
		h.Release(1)
	})

	// Crash the holder; the token of r0 is gone with it.
	h.at(50, func() { h.crash(1) })

	// A request that routes through the dead holder wedges...
	base := 0
	h.at(60, func() {
		base = len(h.grants)
		h.Request(2, ids(3, 0))
	})
	h.at(85, func() {
		if len(h.grantedSince(base)) != 0 {
			t.Fatal("granted before the lease silence window elapsed — regeneration fired early")
		}
	})

	// ...until the steward's 4×TTL deadline passes (last heartbeat at
	// ~t=50, so regeneration lands near t=90) and the regenerated token
	// serves the replayed request.
	h.at(150, func() {
		got := h.grantedSince(base)
		if len(got) != 1 || got[0] != 2 {
			t.Fatalf("wedged request not served after regeneration: grants=%v, node2 state %v, node0 counters %+v",
				got, h.nodes[2].st, h.nodes[0].Counters())
		}
		if h.nodes[0].Counters().Regens != 1 {
			t.Fatalf("steward counters: %+v, want exactly one regeneration", h.nodes[0].Counters())
		}
		if h.nodes[2].tok[0].Epoch != 1 {
			t.Fatalf("served token epoch %d, want 1", h.nodes[2].tok[0].Epoch)
		}
		h.Release(2)
	})
	h.Run()
}

// TestStaleHolderFencedOnResurface: the crashed ex-holder comes back
// after its token was regenerated. Its stale-epoch heartbeat must be
// answered with the regeneration announcement, after which it fences
// its own dead ownership instead of competing with the live token.
func TestStaleHolderFencedOnResurface(t *testing.T) {
	h := newTimed(3, 3, leaseOpts())
	h.tickAll(2, 400, nil)

	h.at(5, func() { h.Request(1, ids(3, 0)) })
	h.at(20, func() { h.Release(1) })
	h.at(50, func() { h.crash(1) })

	// Regeneration happens around t=90; resurrect well after.
	h.at(200, func() {
		if h.nodes[0].Counters().Regens != 1 {
			t.Fatalf("precondition: %+v", h.nodes[0].Counters())
		}
		if !h.nodes[1].owned.Has(0) {
			t.Fatal("precondition: resurrected node must still believe it owns r0")
		}
		h.revive(1)
	})
	// Its next heartbeat carries epoch 0; the steward's regen reply
	// fences it.
	h.at(250, func() {
		nd := h.nodes[1]
		if nd.owned.Has(0) {
			t.Fatal("stale holder kept ownership after the fence")
		}
		if nd.Counters().Fenced == 0 {
			t.Fatalf("no fence recorded: %+v", nd.Counters())
		}
		if nd.curEpoch[0] != 1 {
			t.Fatalf("stale holder epoch view %d, want 1", nd.curEpoch[0])
		}
		// And it can still acquire the resource through the live token.
		h.Request(1, ids(3, 0))
	})
	h.at(300, func() {
		if h.nodes[1].st != stInCS {
			t.Fatalf("resurrected node wedged: state %v", h.nodes[1].st)
		}
		h.Release(1)
	})
	h.Run()
}

// TestFencedMidParkFallsBack: a locally-satisfied entry parked on a
// lapsed lease loses its token to a regeneration; the node must fall
// back to the remote request path and still complete.
func TestFencedMidParkFallsBack(t *testing.T) {
	h := newTimed(2, 2, leaseOpts())
	wedged := false
	// Node 0's clock stops at t=30 — it keeps receiving messages (a
	// partition of its *steward traffic* only would be equivalent) but
	// stops heartbeating, so node1 (steward of r1) regenerates r1.
	h.tickAll(2, 600, func(i int) bool { return i != 0 || !wedged })

	h.at(1, func() { h.Request(0, ids(2, 0, 1)) })
	h.at(10, func() { h.Release(0) })
	h.at(30, func() { wedged = true })

	// With its leases lapsing and no ticks, a fresh local request parks.
	h.at(60, func() {
		h.Request(0, ids(2, 1))
		if h.nodes[0].st == stInCS {
			t.Fatal("entered CS on a lapsed lease")
		}
	})
	// Node1 regenerates r1 around t ≈ 30+40; the broadcast both fences
	// node0 and makes it re-issue the parked entry remotely.
	h.at(200, func() {
		if h.nodes[1].Counters().Regens == 0 {
			t.Fatalf("steward never regenerated: %+v", h.nodes[1].Counters())
		}
		if h.nodes[0].st != stInCS {
			t.Fatalf("parked entry never recovered: state %v, counters %+v",
				h.nodes[0].st, h.nodes[0].Counters())
		}
		h.Release(0)
	})
	h.Run()
	if h.nodes[0].Counters().Fenced == 0 {
		t.Fatalf("no fence recorded on node0: %+v", h.nodes[0].Counters())
	}
}

// TestProcessUpdateFencesStaleEpoch: unit-level fencing — a token from
// a dead epoch arriving at a node that has witnessed a newer one is
// dropped at install, not merged.
func TestProcessUpdateFencesStaleEpoch(t *testing.T) {
	h := newTimed(2, 2, leaseOpts())
	nd := h.nodes[1]
	nd.curEpoch[0] = 2
	stale := newToken(0, 2)
	stale.Epoch = 1
	nd.processUpdate(stale)
	if nd.owned.Has(0) {
		t.Fatal("stale-epoch token installed")
	}
	if nd.stats.Fenced != 1 {
		t.Fatalf("Fenced = %d, want 1", nd.stats.Fenced)
	}
	fresh := newToken(0, 2)
	fresh.Epoch = 2
	nd.processUpdate(fresh)
	if !nd.owned.Has(0) {
		t.Fatal("current-epoch token rejected")
	}
}

// TestDrainHandsOffTokens: an orderly Drain moves every owned token to
// its steward (or the next site when the drainer is the steward), so a
// restart never wedges a resource even without leases.
func TestDrainHandsOffTokens(t *testing.T) {
	h := newTimed(3, 3, WithoutLoan())
	h.at(1, func() { h.nodes[0].Drain() })
	h.Run()
	nd := h.nodes[0]
	if !nd.owned.Empty() {
		t.Fatalf("drained node still owns %v", nd.owned)
	}
	if nd.Counters().Drained != 3 {
		t.Fatalf("Drained = %d, want 3", nd.Counters().Drained)
	}
	// Steward placement: r0 → steward is node0 itself → next site 1;
	// r1 → node1; r2 → node2.
	if !h.nodes[1].owned.Has(0) || !h.nodes[1].owned.Has(1) || !h.nodes[2].owned.Has(2) {
		t.Fatalf("tokens landed at owned sets %v / %v / %v",
			h.nodes[0].owned, h.nodes[1].owned, h.nodes[2].owned)
	}
	// The cluster still works: acquire through the moved tokens.
	h.at(2, func() { h.Request(2, ids(3, 0, 1, 2)) })
	h.Run()
	if h.nodes[2].st != stInCS {
		t.Fatalf("post-drain acquire wedged: %v", h.nodes[2].st)
	}
	h.Release(2)
}

// TestDrainQueueHeadWins: a waiting queue head outranks the steward as
// the drain destination — the handoff should serve the waiter directly.
func TestDrainQueueHeadWins(t *testing.T) {
	h := newTimed(3, 3, WithoutLoan())
	// node1 holds r1 in CS; node2 queues behind it.
	h.at(1, func() { h.Request(1, ids(3, 1)) })
	h.at(10, func() { h.Request(2, ids(3, 1)) })
	h.at(20, func() {
		if !h.nodes[1].tok[1].Queue.contains(2, h.nodes[2].curID) {
			t.Fatalf("setup: node2 not queued at node1: %v", h.nodes[1].tok[1].Queue)
		}
		// node1 releases, then drains: the token must go to node2 (the
		// released queue head service already does this; drain the rest).
		h.Release(1)
	})
	h.Run()
	if h.nodes[2].st != stInCS {
		t.Fatalf("queue head not served: %v", h.nodes[2].st)
	}
	h.Release(2)
}

// TestParkedEntryReclaimsStolenToken: node0 parks its genesis-owned
// entry on the missing lease; before the heartbeat round completes,
// node1's competing request takes the tokens away. The reclaim path
// must re-register node0's interest or the entry wedges forever.
func TestParkedEntryReclaimsStolenToken(t *testing.T) {
	h := newTimed(2, 3, leaseOpts())
	h.tickAll(2, 200, nil)

	h.at(0.1, func() {
		h.Request(0, ids(3, 0, 1, 2))
		if h.nodes[0].st == stInCS {
			t.Fatal("entered CS without a lease")
		}
	})
	// Node1 requests the same set while node0 is parked leaseless.
	h.at(0.2, func() { h.Request(1, ids(3, 0, 1, 2)) })
	// Whoever is granted releases on the next sweep, so both entries
	// get their turn in either order.
	for ms := 5.0; ms <= 180; ms += 5 {
		h.at(ms, func() {
			for i, nd := range h.nodes {
				if nd.st == stInCS {
					h.Release(i)
				}
			}
		})
	}
	h.at(190, func() {
		n0, n1 := h.nodes[0], h.nodes[1]
		if n0.st != stIdle || n1.st != stIdle {
			t.Fatalf("wedged: node0 st=%v entryHeld=%v owned=%v; node1 st=%v owned=%v",
				n0.st, n0.entryHeld, n0.owned, n1.st, n1.owned)
		}
	})
	h.Run()
	if len(h.grants) != 2 {
		t.Fatalf("grants=%v, want both nodes served", h.grants)
	}
}

// TestFencedOwnerKeepsStaleStamps: an owner fenced by a regeneration
// announcement loses the token but keeps what it knew of it — the
// stamps it judges replayed requests by, as after an ordinary transfer.
func TestFencedOwnerKeepsStaleStamps(t *testing.T) {
	f := newWorld(3, 3, WithoutLoan())
	f.acquire(t, 1, ids(3, 0))
	f.release(1) // r0's token rests at node 1
	nd := f.nodes[1]
	tok := nd.tok[0]
	tok.LastCS[2], tok.LastReqC[2] = 4, 6
	tok.Queue.Insert(reqRef{Site: 2, ID: 5, Mark: 1})

	nd.Deliver(0, regenMsg{R: 0, Epoch: 1, Owner: 0})
	if nd.owned.Has(0) || nd.tok[0] != nil {
		t.Fatalf("fenced owner still holds r0: owned %v, token %v", nd.owned, nd.tok[0])
	}
	if nd.stats.Fenced != 1 || nd.curEpoch[0] != 1 || nd.tokDir[0] != 0 {
		t.Fatalf("after the fence: fenced %d, epoch %d, father s%d", nd.stats.Fenced, nd.curEpoch[0], nd.tokDir[0])
	}
	if len(f.InFlight()) != 0 {
		t.Fatalf("an idle fenced owner sent %d messages", len(f.InFlight()))
	}
	// Replays of what the dead token had already served are dropped;
	// the request it had not served is stored and chases the new token.
	nd.Deliver(2, &reqBatch{
		Visited: []network.NodeID{2},
		Reqs: []request{
			{Kind: reqRes, R: 0, Init: 2, ID: 4, Mark: 1},
			{Kind: reqCnt, R: 0, Init: 2, ID: 6},
			{Kind: reqRes, R: 0, Init: 2, ID: 5, Mark: 1},
		},
	})
	if h := nd.pending[0].reqs; len(h) != 1 || h[0].ID != 5 {
		t.Fatalf("history after the replays: %v, want the one live request", h)
	}
	if len(f.InFlight()) != 1 || f.InFlight()[0].To != 0 {
		t.Fatalf("forwarded %d messages, want one to the regenerated token's owner", len(f.InFlight()))
	}
	if fwd := f.InFlight()[0].M.(*reqBatch); len(fwd.Reqs) != 1 || fwd.Reqs[0].ID != 5 {
		t.Fatalf("forwarded %v, want the one live request", fwd.Reqs)
	}
}

// TestRegenerateFromStaleStamps: the steward rebuilds a lost token from
// what it kept when the token left — counter one past the stale one,
// both stamp vectors — so the reborn token still drops the replays the
// old one had served, and the cluster goes on under the new epoch.
func TestRegenerateFromStaleStamps(t *testing.T) {
	f := newWorld(3, 3, WithoutLoan())
	nd := f.nodes[0] // steward of r0, and its genesis owner
	tok := nd.tok[0]
	tok.Counter = 9
	tok.LastCS[2], tok.LastReqC[2] = 4, 6
	f.acquire(t, 1, ids(3, 0)) // the token leaves with those stamps
	f.release(1)
	left := f.nodes[1].tok[0].Counter
	if nd.owned.Has(0) || left < 9 {
		t.Fatalf("set-up: steward owns %v, the token left with counter %d", nd.owned, left)
	}
	stale := nd.staleStamps(0)[2*3]
	// In the steward's history: a request the old token had served and
	// one it had not.
	nd.storePending(&request{Kind: reqRes, R: 0, Init: 2, ID: 4, Mark: 1}, resource.Set{})
	nd.storePending(&request{Kind: reqRes, R: 0, Init: 2, ID: 5, Mark: 1}, resource.Set{})

	nd.regenerate(0, 0)
	nd.flushOwn() // as Tick, regenerate's caller, does
	if nd.stats.Regens != 1 || nd.curEpoch[0] != 1 {
		t.Fatalf("after regenerate: regens %d, epoch %d", nd.stats.Regens, nd.curEpoch[0])
	}
	// Two announcements, then the reborn token on its way to the live
	// request's site (the steward does not compete for r0).
	sent := f.InFlight()
	if len(sent) != 3 {
		t.Fatalf("regenerate sent %d messages, want 2 announcements and the token", len(sent))
	}
	for i, to := range []network.NodeID{1, 2} {
		if rg, ok := sent[i].M.(regenMsg); !ok || sent[i].To != to || rg != (regenMsg{R: 0, Epoch: 1, Owner: 0}) {
			t.Fatalf("message %d: %+v to s%d, want the announcement to s%d", i, sent[i].M, sent[i].To, to)
		}
	}
	resp, ok := sent[2].M.(*respBatch)
	if !ok || sent[2].To != 2 || len(resp.Tokens) != 1 {
		t.Fatalf("third message %+v to s%d, want r0's token to s2", sent[2].M, sent[2].To)
	}
	reborn := resp.Tokens[0]
	if reborn.Epoch != 1 || reborn.Counter != stale+1 || reborn.LastCS[2] != 4 || reborn.LastReqC[2] != 6 {
		t.Fatalf("reborn token %+v, want epoch 1, counter %d and the stale stamps", reborn, stale+1)
	}
	if len(reborn.Queue) != 0 {
		t.Fatalf("reborn token queues %v: the served request was replayed onto it", reborn.Queue)
	}
	if len(nd.pending[0].reqs) != 0 {
		t.Fatalf("history not consumed by the replay: %v", nd.pending[0].reqs)
	}

	// The old token's holder is fenced by the announcement and the
	// cluster serves r0 under the new epoch.
	f.Drain(nil)
	if f.nodes[1].owned.Has(0) || f.nodes[1].stats.Fenced != 1 || !f.nodes[2].owned.Has(0) {
		t.Fatalf("after the announcements: s1 owns %v (fenced %d), s2 owns %v",
			f.nodes[1].owned, f.nodes[1].stats.Fenced, f.nodes[2].owned)
	}
	f.acquire(t, 1, ids(3, 0))
	if got := f.nodes[1].tok[0].Epoch; got != 1 {
		t.Fatalf("served under epoch %d, want 1", got)
	}
	f.release(1)
}

// linkLatency is a latency per directed link: constant on each link,
// so every link stays FIFO, and different across links.
type linkLatency [][]sim.Time

func (l linkLatency) Latency(from, to network.NodeID) sim.Time { return l[from][to] }

// TestLeasedBorrowerReturnsLoan storms loans and leases together on a
// timed World, seeded: six sites, each requesting random sets of one to
// three of eight resources in a closed loop, links of 100 µs to 1 ms,
// every site ticked each millisecond. A borrower parks on the leases of
// its borrowed tokens like any holder; while parked it may yield one
// of its own tokens to a request that outranks it. Its loan has then
// failed, and it must return what it borrowed (deviation 4), or the
// lender waits for the borrower, the borrower for the site it yielded
// to, and that site for the lender. Every request must be granted.
func TestLeasedBorrowerReturnsLoan(t *testing.T) {
	const n, m, rounds = 6, 8, 40
	opt := WithLoan()
	opt.LeaseTTL = 10 * sim.Millisecond
	for seed := int64(1); seed <= 12; seed++ {
		rng := sim.Stream(seed, "core/leased-loans")
		lat := make(linkLatency, n)
		for a := range lat {
			lat[a] = make([]sim.Time, n)
			for b := range lat[a] {
				lat[a][b] = sim.Time(100+rng.Intn(900)) * sim.Microsecond
			}
		}
		nodes := NewFactory(opt)(n, m)
		var w *explore.World
		done := make([]int, n)
		var next func(s int)
		granted := func(s int) {
			w.At(w.Now()+sim.Time(rng.Intn(500))*sim.Microsecond, func() {
				w.Release(s)
				done[s]++
				next(s)
			})
		}
		w = explore.NewTimed(nodes, m, network.NewTiming(n, lat, 0), granted)
		next = func(s int) {
			if done[s] == rounds {
				return
			}
			w.At(w.Now()+sim.Time(rng.Intn(500))*sim.Microsecond, func() {
				w.Request(s, resource.Sample(rng, m, 1+rng.Intn(3)))
			})
		}
		const end = 2 * sim.Second
		var tick func()
		tick = func() {
			for _, nd := range nodes {
				nd.(*Node).Tick(w.Now())
			}
			if w.Now() < end {
				w.At(w.Now()+sim.Millisecond, tick)
			}
		}
		w.At(sim.Millisecond, tick)
		for s := range n {
			next(s)
		}
		w.RunUntil(end)
		for s, k := range done {
			if k != rounds {
				t.Errorf("seed %d: site %d finished %d of %d requests by %v (wedged: %v)",
					seed, s, k, rounds, end, nodes[s].(*Node).st)
			}
		}
	}
}
