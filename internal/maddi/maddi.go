// Package maddi implements the broadcast-based comparator of the
// paper's related work (§2.2): Maddi's token solution to the
// m-resources allocation problem (SAC 1997), "multiple instances of the
// Suzuki–Kasami mutual exclusion algorithm" — one token per resource,
// every request broadcast to all sites and stored in timestamp-ordered
// queues.
//
// A critical-section request takes one Lamport timestamp; (timestamp,
// site) totally orders requests system-wide, so the per-resource queues
// are mutually consistent and no deadlock can arise, by the same
// argument as the paper's Lemma 5. Three rules move the tokens:
//
//   - an idle token holder sends the token to any requester;
//   - a holder waiting for other resources yields a held token to a
//     requester whose request precedes its own (queueing itself), and
//     queues later requesters;
//   - a holder in its critical section queues everyone until release.
//
// Because requests are broadcast, every site — in particular the
// current token holder, wherever the token moved — sees every request:
// none of the routing machinery of the paper's algorithm (father
// pointers, visited sets, pendingReq replay) is needed. The price is
// exactly what the paper's introduction says: x·(N−1) messages per
// request, "not scalable in terms of message complexity". The
// message-complexity experiment (mrsim sweep -exp msgs) quantifies it.
package maddi

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// prio orders requests by (Lamport timestamp, site) — the total order
// that keeps all queues consistent.
type prio struct {
	TS   int64
	Site network.NodeID
}

func (a prio) precedes(b prio) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Site < b.Site
}

// entry is one queued request for one resource.
type entry struct {
	P  prio
	ID int64 // requester's CS sequence number, for obsolescence
}

// reqMsg is the broadcast request: site Init wants resource R for its
// ID-th critical section, with priority P.
type reqMsg struct {
	R    resource.ID
	Init network.NodeID
	ID   int64
	P    prio
}

// Kind implements network.Message.
func (reqMsg) Kind() string { return "Maddi.Request" }

// tokMsg transfers the token of resource R with its queue and the
// per-site last-served sequence numbers.
type tokMsg struct {
	R          resource.ID
	Queue      []entry
	LastServed []int64
}

// Kind implements network.Message.
func (tokMsg) Kind() string { return "Maddi.Token" }

// Node is one site of the algorithm.
type Node struct {
	env   alg.Env
	clock int64

	st     state
	needed resource.Set
	held   resource.Set
	myID   int64
	myPrio prio

	// Per resource: do we hold the token, and its queue/stamps when we do.
	hasToken []bool
	queues   [][]entry
	served   [][]int64

	// pending is the Suzuki–Kasami RN[] bookkeeping: the latest request
	// heard from each site for each resource. A request broadcast while
	// the token is in flight reaches no holder; whoever receives the
	// token next merges the pending entries into its queue.
	pending [][]entry
}

type state uint8

const (
	idle state = iota
	waiting
	inCS
)

// NewFactory returns the driver factory; site 0 initially holds every
// token.
func NewFactory() alg.Factory {
	return func(n, m int) []alg.Node {
		nodes := make([]alg.Node, n)
		for i := range nodes {
			nodes[i] = &Node{}
		}
		return nodes
	}
}

// Attach implements alg.Node.
func (nd *Node) Attach(env alg.Env) {
	nd.env = env
	m := env.M()
	nd.needed = resource.NewSet(m)
	nd.held = resource.NewSet(m)
	nd.hasToken = make([]bool, m)
	nd.queues = make([][]entry, m)
	nd.served = make([][]int64, m)
	nd.pending = make([][]entry, m)
	for r := 0; r < m; r++ {
		nd.pending[r] = make([]entry, env.N())
	}
	if env.ID() == 0 {
		for r := 0; r < m; r++ {
			nd.hasToken[r] = true
			nd.served[r] = make([]int64, env.N())
		}
	}
}

func (nd *Node) self() network.NodeID { return nd.env.ID() }

// Request implements alg.Node: stamp once, broadcast per resource.
func (nd *Node) Request(rs resource.Set) {
	if nd.st != idle {
		panic(fmt.Sprintf("maddi: s%d requested while busy", nd.self()))
	}
	nd.clock++
	nd.myID++
	nd.myPrio = prio{TS: nd.clock, Site: nd.self()}
	nd.needed = rs.Clone()
	nd.st = waiting
	rs.ForEach(func(r resource.ID) {
		if nd.hasToken[r] {
			nd.held.Add(r)
			return
		}
		msg := reqMsg{R: r, Init: nd.self(), ID: nd.myID, P: nd.myPrio}
		for j := 0; j < nd.env.N(); j++ {
			if network.NodeID(j) != nd.self() {
				nd.env.Send(network.NodeID(j), msg)
			}
		}
	})
	nd.checkEnter()
}

func (nd *Node) checkEnter() {
	if nd.st == waiting && nd.needed.SubsetOf(nd.held) {
		nd.st = inCS
		nd.env.Granted()
	}
}

// Release implements alg.Node: serve every queue head, keep idle tokens.
func (nd *Node) Release() {
	if nd.st != inCS {
		panic(fmt.Sprintf("maddi: s%d released outside CS", nd.self()))
	}
	nd.st = idle
	for _, r := range nd.needed.Members() {
		nd.served[r][nd.self()] = nd.myID
		nd.held.Remove(r)
		nd.serveHead(r)
	}
	nd.needed.Clear()
}

// serveHead forwards r's token to the first live queued request, if any.
func (nd *Node) serveHead(r resource.ID) {
	q := nd.queues[r]
	for len(q) > 0 {
		head := q[0]
		q = q[1:]
		if nd.obsolete(r, head) {
			continue
		}
		nd.queues[r] = q
		nd.sendToken(headSite(head), r)
		return
	}
	nd.queues[r] = q
}

func headSite(e entry) network.NodeID { return e.P.Site }

func (nd *Node) obsolete(r resource.ID, e entry) bool {
	return e.ID <= nd.served[r][e.P.Site]
}

// sendToken hands the token of r over, with its queue and stamps.
func (nd *Node) sendToken(to network.NodeID, r resource.ID) {
	if to == nd.self() {
		panic(fmt.Sprintf("maddi: s%d sending token %d to itself", nd.self(), r))
	}
	nd.hasToken[r] = false
	q := nd.queues[r]
	s := nd.served[r]
	nd.queues[r] = nil
	nd.served[r] = nil
	nd.env.Send(to, tokMsg{R: r, Queue: q, LastServed: s})
}

// insert adds e to r's queue in (timestamp, site) order, deduplicating.
func (nd *Node) insert(r resource.ID, e entry) {
	q := nd.queues[r]
	for _, x := range q {
		if x.P.Site == e.P.Site && x.ID == e.ID {
			return
		}
	}
	i := 0
	for i < len(q) && q[i].P.precedes(e.P) {
		i++
	}
	q = append(q, entry{})
	copy(q[i+1:], q[i:])
	q[i] = e
	nd.queues[r] = q
}

// Deliver implements alg.Node.
func (nd *Node) Deliver(from network.NodeID, m network.Message) {
	switch msg := m.(type) {
	case reqMsg:
		nd.onRequest(msg)
	case tokMsg:
		nd.onToken(msg)
	default:
		panic(fmt.Sprintf("maddi: unexpected message %T", m))
	}
}

func (nd *Node) onRequest(msg reqMsg) {
	// Lamport rule: receiving a stamped request advances the clock, so
	// every request issued after hearing this one gets a larger
	// timestamp — that is what makes (TS, site) starvation-free.
	if msg.P.TS > nd.clock {
		nd.clock = msg.P.TS
	}
	r := msg.R
	e := entry{P: msg.P, ID: msg.ID}
	if e.ID > nd.pending[r][msg.Init].ID {
		nd.pending[r][msg.Init] = e
	}
	if !nd.hasToken[r] {
		return // merged into the queue when a token arrives here
	}
	if nd.obsolete(r, e) {
		return
	}
	switch {
	case nd.st == idle || !nd.needed.Has(r):
		nd.sendToken(msg.Init, r)
	case nd.st == inCS:
		nd.insert(r, entry{P: msg.P, ID: msg.ID})
	default: // waiting and we need r
		if msg.P.precedes(nd.myPrio) {
			// The newcomer outranks our pending request: queue
			// ourselves behind it and yield the token.
			nd.insert(r, entry{P: nd.myPrio, ID: nd.myID})
			nd.held.Remove(r)
			nd.sendToken(msg.Init, r)
		} else {
			nd.insert(r, entry{P: msg.P, ID: msg.ID})
		}
	}
}

func (nd *Node) onToken(msg tokMsg) {
	r := msg.R
	if nd.hasToken[r] {
		panic(fmt.Sprintf("maddi: s%d received duplicate token %d", nd.self(), r))
	}
	nd.hasToken[r] = true
	nd.queues[r] = msg.Queue
	nd.served[r] = msg.LastServed
	// Drop our own stale entry, if a yield ever re-queued us and the
	// token still came straight back.
	q := nd.queues[r][:0]
	for _, e := range nd.queues[r] {
		if e.P.Site != nd.self() {
			q = append(q, e)
		}
	}
	nd.queues[r] = q
	// Merge requests that were broadcast while the token travelled
	// (the RN/LN reconciliation of Suzuki–Kasami).
	for j, e := range nd.pending[r] {
		if network.NodeID(j) == nd.self() || e.ID == 0 {
			continue
		}
		if !nd.obsolete(r, e) {
			nd.insert(r, e)
		}
	}

	if nd.st == waiting && nd.needed.Has(r) {
		nd.held.Add(r)
		nd.checkEnter()
		if nd.st == inCS {
			return
		}
		// Still waiting: the queue may hold someone who outranks us.
		if len(nd.queues[r]) > 0 && nd.queues[r][0].P.precedes(nd.myPrio) {
			head := nd.queues[r][0]
			nd.queues[r] = nd.queues[r][1:]
			nd.insert(r, entry{P: nd.myPrio, ID: nd.myID})
			nd.held.Remove(r)
			nd.sendToken(headSite(head), r)
		}
		return
	}
	// A token we no longer wait for (e.g. served while an old broadcast
	// still routed it here): pass it to its queue head or keep it.
	nd.serveHead(r)
}
