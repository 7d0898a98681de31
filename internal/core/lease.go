package core

import (
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/wire"
)

// Token leases and epoch-fenced regeneration. The base protocol is
// crash-free: a token lost with its holder wedges every later request
// for that resource forever. With Options.LeaseTTL > 0 each resource
// gets a fixed steward — site r % N — and ownership becomes a lease
// renewed by heartbeat:
//
//   - Every owner heartbeats its holdings to their stewards every
//     LeaseTTL/3 (and immediately on acquiring a token). The
//     steward echoes a grant carrying the heartbeat's own send time,
//     and only that echo extends the holder's lease: leaseUntil =
//     sentTime + TTL on the holder's clock. Clock *skew* between the
//     two sites therefore never inflates a lease; only their relative
//     rates matter.
//   - A node enters its critical section only while every required
//     lease is current (leaseReady). The steward declares an unheard
//     holder dead only after 4×TTL of silence, so a live holder's
//     lease always runs out at least 3×TTL before its steward can act
//     on the silence: critical sections shorter than that bound are
//     safe by construction.
//   - On expiry the steward regenerates the token from the stale
//     stamps it kept under a bumped Epoch and broadcasts the regeneration.
//     Every site re-aims its father pointer at the steward and
//     re-issues its in-flight request; a resurfacing copy of the old
//     token — or its stale ex-holder — is fenced by the epoch check
//     instead of splitting ownership.
//
// Lease traffic (LASS.HB, LASS.Lease, LASS.Regen) bypasses the §4.2.2
// aggregation outbox: it is low-rate, latency-sensitive control
// traffic, not protocol payload.

func init() {
	wire.Register("LASS.HB", encHB, decHB)
	wire.Register("LASS.Lease", encLease, decLease)
	wire.Register("LASS.Regen", encRegen, decRegen)
	wire.RegisterSamples(
		hbMsg{Sent: 5 * sim.Millisecond, Owned: []hbEntry{{R: 1, Epoch: 0}, {R: 3, Epoch: 2}}},
		hbMsg{},
		leaseMsg{Sent: 5 * sim.Millisecond, Rs: []resource.ID{1, 3}},
		regenMsg{R: 3, Epoch: 3, Owner: 1},
	)
}

// hbEntry names one held token and the epoch it was held under; a
// stale epoch tells the steward the heartbeat comes from a fenced
// ex-holder, not the live owner.
type hbEntry struct {
	R     resource.ID
	Epoch int64
}

// hbMsg is an owner's lease renewal: every resource it holds whose
// steward is the destination, stamped with the sender's own clock.
type hbMsg struct {
	Sent  sim.Time
	Owned []hbEntry
}

func (hbMsg) Kind() string { return "LASS.HB" }

// leaseMsg is the steward's grant echo. Sent is copied verbatim from
// the heartbeat being answered, so the holder computes its lease end
// on its own clock.
type leaseMsg struct {
	Sent sim.Time
	Rs   []resource.ID
}

func (leaseMsg) Kind() string { return "LASS.Lease" }

// regenMsg announces a regeneration: the token of R now exists only
// under Epoch, owned by the steward that rebuilt it.
type regenMsg struct {
	R     resource.ID
	Epoch int64
	Owner network.NodeID
}

func (regenMsg) Kind() string { return "LASS.Regen" }

func encHB(e *wire.Enc, m network.Message) {
	hb := m.(hbMsg)
	e.Varint(int64(hb.Sent))
	e.Uvarint(uint64(len(hb.Owned)))
	for _, x := range hb.Owned {
		e.Varint(int64(x.R))
		e.Varint(x.Epoch)
	}
}

func decHB(d *wire.Dec) network.Message {
	var hb hbMsg
	hb.Sent = sim.Time(d.Varint())
	if hb.Sent < 0 && d.Err() == nil {
		d.Fail("negative heartbeat timestamp %d", hb.Sent)
		return hb
	}
	n := d.Count()
	if d.Err() != nil {
		return hb
	}
	hb.Owned = make([]hbEntry, 0, n)
	for i := 0; i < n; i++ {
		var x hbEntry
		x.R = d.Res()
		x.Epoch = d.Varint()
		if x.Epoch < 0 && d.Err() == nil {
			d.Fail("negative epoch %d in heartbeat", x.Epoch)
		}
		if d.Err() != nil {
			return hb
		}
		hb.Owned = append(hb.Owned, x)
	}
	return hb
}

func encLease(e *wire.Enc, m network.Message) {
	l := m.(leaseMsg)
	e.Varint(int64(l.Sent))
	e.Uvarint(uint64(len(l.Rs)))
	for _, r := range l.Rs {
		e.Varint(int64(r))
	}
}

func decLease(d *wire.Dec) network.Message {
	var l leaseMsg
	l.Sent = sim.Time(d.Varint())
	if l.Sent < 0 && d.Err() == nil {
		d.Fail("negative lease timestamp %d", l.Sent)
		return l
	}
	n := d.Count()
	if d.Err() != nil {
		return l
	}
	l.Rs = make([]resource.ID, 0, n)
	for i := 0; i < n; i++ {
		r := d.Res()
		if d.Err() != nil {
			return l
		}
		l.Rs = append(l.Rs, r)
	}
	return l
}

func encRegen(e *wire.Enc, m network.Message) {
	rg := m.(regenMsg)
	e.Varint(int64(rg.R))
	e.Varint(rg.Epoch)
	e.Node(rg.Owner)
}

func decRegen(d *wire.Dec) network.Message {
	var rg regenMsg
	rg.R = d.Res()
	rg.Epoch = d.Varint()
	if rg.Epoch <= 0 && d.Err() == nil {
		// Epoch 0 is the genesis generation; it is never announced.
		d.Fail("regeneration epoch %d out of range", rg.Epoch)
		return rg
	}
	rg.Owner = d.Site()
	return rg
}

// steward is the fixed lease authority of r. The modulo spreads the
// duty evenly and every site can compute it locally.
func (nd *Node) steward(r resource.ID) network.NodeID {
	return network.NodeID(int(r) % nd.env.N())
}

// leasing reports whether the lease machinery is armed.
func (nd *Node) leasing() bool { return nd.opt.LeaseTTL > 0 }

// leaseReady reports whether every required resource is covered by a
// current lease; it is the CS-entry gate.
func (nd *Node) leaseReady() bool {
	now := nd.env.Now()
	ok := true
	nd.required.ForEach(func(r resource.ID) {
		if nd.leaseUntil[r] <= now {
			ok = false
		}
	})
	return ok
}

// maybeEnter enters the critical section, unless leases are armed and
// one of the required leases is not current — then the entry parks
// (entryHeld) and retries when a grant or a tick arrives. Every token
// stays owned meanwhile; only the entry itself waits.
func (nd *Node) maybeEnter() {
	if nd.leasing() && !nd.leaseReady() {
		nd.entryHeld = true
		return
	}
	nd.entryHeld = false
	nd.enterCS()
}

// retryEntry re-attempts a parked CS entry; grants and ticks call it.
func (nd *Node) retryEntry() {
	if nd.entryHeld && nd.st != stInCS && !nd.required.Empty() &&
		nd.required.SubsetOf(nd.owned) {
		nd.maybeEnter()
	}
}

// Tick implements alg.Ticker: the runtime's clock edge. All timed
// lease work happens here — heartbeat rounds, holder-side lease-lapse
// accounting, and the steward's expiry scan.
func (nd *Node) Tick(now sim.Time) {
	if !nd.leasing() {
		return
	}
	ttl := nd.opt.LeaseTTL
	if !nd.leaseInit {
		// First clock edge: stewards start the death countdown for
		// every token they cannot vouch for. Before this a steward has
		// no time base to judge silence against.
		nd.leaseInit = true
		for r := range nd.stewardDeadline {
			if nd.steward(resource.ID(r)) == nd.self() && !nd.owned.Has(resource.ID(r)) {
				nd.stewardDeadline[r] = now + 4*ttl
			}
		}
	}
	if now >= nd.nextHB {
		nd.nextHB = now + nd.opt.hbInterval()
		nd.ids = nd.owned.AppendMembers(room(nd.ids))
		nd.sendHeartbeats(now, nd.ids)
	}
	// Holder-side lapse edges: an owned lease running out is counted
	// once, not once per tick.
	nd.ids = nd.owned.AppendMembers(room(nd.ids))
	for _, r := range nd.ids {
		if nd.leaseUntil[r] > 0 && nd.leaseUntil[r] <= now && !nd.leaseLapsed[r] {
			nd.leaseLapsed[r] = true
			nd.stats.LeaseExpiries++
		}
	}
	// Steward expiry scan: regenerate what has been silent too long.
	for i := range nd.stewardDeadline {
		r := resource.ID(i)
		if nd.steward(r) != nd.self() || nd.owned.Has(r) {
			continue
		}
		if dl := nd.stewardDeadline[i]; dl > 0 && now >= dl {
			nd.regenerate(r, now)
		}
	}
	nd.retryEntry()
	nd.flushOwn()
}

// sendHeartbeats renews the leases of the given owned resources:
// self-stewarded ones locally, the rest with one heartbeat per
// steward. rs must be a snapshot of (a subset of) nd.owned.
func (nd *Node) sendHeartbeats(now sim.Time, rs []resource.ID) {
	ttl := nd.opt.LeaseTTL
	var byDest map[network.NodeID]*hbMsg
	for _, r := range rs {
		s := nd.steward(r)
		if s == nd.self() {
			nd.grantLease(r, now+ttl)
			continue
		}
		if byDest == nil {
			byDest = make(map[network.NodeID]*hbMsg, 4)
		}
		hb := byDest[s]
		if hb == nil {
			hb = &hbMsg{Sent: now}
			byDest[s] = hb
		}
		hb.Owned = append(hb.Owned, hbEntry{R: r, Epoch: nd.tok[r].Epoch})
	}
	for to, hb := range byDest {
		nd.stats.Heartbeats++
		nd.env.Send(to, *hb)
	}
}

// grantLease installs one lease end on the holder side, keeping the
// latest end when grants arrive out of order.
func (nd *Node) grantLease(r resource.ID, until sim.Time) {
	if until > nd.leaseUntil[r] {
		nd.leaseUntil[r] = until
	}
	nd.leaseLapsed[r] = false
}

// onHeartbeat is the steward side of a renewal: refresh the death
// countdown and echo a grant for every current-epoch holding. A stale
// epoch means the sender is a fenced ex-holder that missed the
// regeneration broadcast — re-announce it instead of granting.
func (nd *Node) onHeartbeat(from network.NodeID, hb hbMsg) {
	now := nd.env.Now()
	var grant []resource.ID
	for _, x := range hb.Owned {
		if nd.steward(x.R) != nd.self() {
			continue // misdirected; never grant what we do not steward
		}
		if x.Epoch < nd.curEpoch[x.R] {
			if nd.regenOwner[x.R] != network.None {
				nd.env.Send(from, regenMsg{R: x.R, Epoch: nd.curEpoch[x.R], Owner: nd.regenOwner[x.R]})
			}
			continue
		}
		if x.Epoch > nd.curEpoch[x.R] {
			nd.curEpoch[x.R] = x.Epoch
		}
		if !nd.owned.Has(x.R) {
			nd.stewardDeadline[x.R] = now + 4*nd.opt.LeaseTTL
		}
		grant = append(grant, x.R)
	}
	if len(grant) > 0 {
		nd.stats.LeaseGrants++
		nd.env.Send(from, leaseMsg{Sent: hb.Sent, Rs: grant})
	}
}

// onLease installs a grant echo: only resources still owned count (the
// token may have moved on while the grant was in flight), and a parked
// CS entry gets its retry.
func (nd *Node) onLease(l leaseMsg) {
	ttl := nd.opt.LeaseTTL
	for _, r := range l.Rs {
		if nd.owned.Has(r) {
			nd.grantLease(r, l.Sent+ttl)
		}
	}
	nd.retryEntry()
}

// regenerate rebuilds the token of r under a fresh epoch. The stale
// table seeds counter and obsolescence stamps (conservative: stamps
// only grow, so replayed requests are never wrongly dropped), queues
// start empty, and every site re-issues its in-flight request when the
// broadcast arrives.
func (nd *Node) regenerate(r resource.ID, now sim.Time) {
	nd.stats.Regens++
	newE := nd.curEpoch[r] + 1
	nd.curEpoch[r] = newE
	n := nd.n
	t := newToken(r, n)
	if st := nd.staleStamps(r); st != nil {
		// (All zeros when r's token was never here: a genesis token.)
		copy(t.LastReqC, st[:n])
		copy(t.LastCS, st[n:2*n])
		t.Counter = st[2*n] + 1
	}
	t.Epoch = newE
	nd.own(t)
	nd.stewardDeadline[r] = 0
	nd.regenOwner[r] = nd.self()
	nd.grantLease(r, now+nd.opt.LeaseTTL)
	self := nd.self()
	for i := 0; i < nd.env.N(); i++ {
		if to := network.NodeID(i); to != self {
			nd.env.Send(to, regenMsg{R: r, Epoch: newE, Owner: self})
		}
	}
	// The reborn token serves local history right away; scanQueues in
	// Tick's caller-free context would not run otherwise.
	nd.replayPending(t)
	nd.scanQueues()
}

// onRegen applies a regeneration announcement: fence any stale local
// ownership, re-aim the father pointer, and re-issue whatever request
// of ours was in flight toward the dead token.
func (nd *Node) onRegen(rg regenMsg) {
	r := rg.R
	if rg.Epoch < nd.curEpoch[r] {
		return // an older regeneration resurfacing; already superseded
	}
	// Same-epoch duplicates (a steward re-announcing to a stale
	// heartbeater) re-run everything below; each step is idempotent.
	nd.curEpoch[r] = rg.Epoch
	nd.regenOwner[r] = rg.Owner
	if nd.owned.Has(r) && nd.tok[r].Epoch < rg.Epoch {
		// We are the fenced ex-holder: ownership is gone, of the old
		// token only its stale stamps stay (its queue and loans are
		// re-issued by their initiators on this same broadcast).
		nd.stats.Fenced++
		nd.disown(r)
		nd.lent.Remove(r)
	}
	if rg.Owner != nd.self() && !nd.owned.Has(r) {
		if v := (tokVer{Epoch: rg.Epoch}); v.newer(nd.ver[r]) {
			// Unless a hint already named a later holding of the
			// regenerated token.
			nd.tokDir[r], nd.ver[r] = rg.Owner, v
		}
		nd.leaseUntil[r] = 0
		nd.leaseLapsed[r] = false
	}
	// Re-issue the in-flight request, if any: the dead token took every
	// queued claim with it.
	switch {
	case nd.entryHeld && nd.st != stInCS && nd.required.Has(r) && !nd.owned.Has(r):
		// An entry parked on a lapsed lease just lost one of its tokens
		// to the fence: chase the regenerated token.
		nd.reclaimParked(r)
	case nd.st == stWaitS && nd.cntNeeded.Has(r):
		nd.ask(&request{Kind: reqCnt, R: r, Init: nd.self(), ID: nd.curID})
	case nd.st == stWaitCS && nd.required.Has(r) && !nd.owned.Has(r):
		if nd.single {
			nd.ask(&request{Kind: reqCnt, R: r, Init: nd.self(), ID: nd.curID, Single: true})
		} else {
			nd.ask(&request{Kind: reqRes, R: r, Init: nd.self(), ID: nd.curID, Mark: nd.myMark})
		}
	}
}

// reclaimParked re-issues this node's claim on r after r's token was
// sent away while a lease-parked entry still needs it. The pre-lease
// protocol has no such window — an entry holding all its tokens enters
// the CS synchronously, so a token can never depart out from under it —
// but a parked entry holds tokens without using them, and serving a
// competing request from that position consumes no mark of ours: unless
// we re-issue here, no queue and no in-flight message records our
// interest and the entry is parked forever. The re-issued request rides
// to the token's new home (sendToken just re-aimed tokDir) and queues
// or is served under the ordinary priority rules.
func (nd *Node) reclaimParked(r resource.ID) {
	if !nd.entryHeld || nd.st == stInCS || !nd.required.Has(r) || nd.owned.Has(r) {
		return
	}
	// An entry can park in any waiting state — stIdle (single-resource
	// fast path), stWaitS (every counter was local), stWaitCS — but it
	// always parked holding all its tokens, which means myMark was
	// computed. The reclaim is therefore uniform: fall back to the
	// waitCS path and chase the departed token with an ordinary marked
	// resource request.
	nd.st = stWaitCS
	nd.ask(&request{Kind: reqRes, R: r, Init: nd.self(), ID: nd.curID, Mark: nd.myMark})
}

// Drain implements alg.Drainer: an orderly shutdown hands every owned
// token somewhere useful instead of taking it to the grave — the queue
// head if one waits, else the steward, else the next site around the
// ring. With leases armed this avoids a 4×TTL regeneration stall;
// without, it is the only thing standing between a restart and a
// wedged resource.
func (nd *Node) Drain() {
	if nd.env.N() == 1 {
		return
	}
	nd.ids = nd.owned.AppendMembers(room(nd.ids))
	for _, r := range nd.ids {
		if nd.st == stInCS && nd.required.Has(r) {
			continue // an active critical section cannot be handed off
		}
		t := nd.tok[r]
		var to network.NodeID
		if head, ok := t.Queue.Head(); ok && head.Site != nd.self() {
			t.Queue.PopHead()
			to = head.Site
		} else if s := nd.steward(r); s != nd.self() {
			to = s
		} else {
			to = network.NodeID((int(nd.self()) + 1) % nd.env.N())
		}
		nd.stats.Drained++
		nd.sendToken(to, r)
	}
	nd.flushOwn()
}
