// Package bouabdallah implements the Bouabdallah–Laforest token-based
// dynamic resource allocation algorithm (Operating Systems Review 34(3),
// 2000), the closest related work and the main comparator of the paper's
// evaluation (§2.2, §5).
//
// One control token, unique system-wide and managed by a Naimi–Tréhel
// mutual exclusion instance, serializes request registration. The
// control token carries one entry per resource: either the resource
// token itself or the identity of the resource's latest requester. A
// site that acquires the control token atomically registers for all the
// resources it needs — taking the tokens present in the control token
// and sending an INQUIRE to the latest requester of each absent one —
// then releases the control token immediately. Because registration is
// atomic, the per-resource waiting chains are prefix-consistent with the
// control-token acquisition order and no cycle can form (deadlock
// freedom); the price is that every request, conflicting or not,
// synchronizes on the control token, and scheduling is static: a request
// can never overtake an earlier-registered one.
//
// One subtlety absent from the original paper's prose deserves a note:
// a site can hold a resource token while the control token names another
// site as latest requester: someone registered after this site's
// previous critical section and its INQUIRE is still in flight. The
// token is owed to that registrant, who precedes the holder in the
// chain — but the holder cannot tell who it is (the control token names
// the latest registrant, not the one right behind the holder), so if it
// re-registered now, the INQUIRE it owes the token to and the INQUIRE of
// whoever registers behind it next would be indistinguishable, and they
// travel different links: the wrong one can arrive first, take the
// token, and leave the holder and the rightful claimant waiting on each
// other forever. The holder therefore does not register yet: it hands
// the control token on untouched, waits for the owed INQUIRE (which is
// then the only one that can reach it), yields the token, and only then
// asks for the control token again (awaitInquire).
package bouabdallah

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/naimitrehel"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// ControlToken is the payload riding the Naimi–Tréhel token: per
// resource, either the resource token itself (HasToken) or the latest
// registered requester (Last).
type ControlToken struct {
	HasToken []bool
	Last     []network.NodeID
}

// NewControlToken builds the initial control token: every resource
// token starts inside it.
func NewControlToken(m int) *ControlToken {
	ct := &ControlToken{HasToken: make([]bool, m), Last: make([]network.NodeID, m)}
	for r := 0; r < m; r++ {
		ct.HasToken[r] = true
		ct.Last[r] = network.None
	}
	return ct
}

// ctWire carries Naimi–Tréhel traffic for the control token.
type ctWire struct{ M naimitrehel.Msg }

// Kind implements network.Message.
func (w ctWire) Kind() string {
	if w.M.Type == naimitrehel.MsgRequest {
		return "BL.CTRequest"
	}
	return "BL.CTToken"
}

// inquireMsg asks the latest requester of r to forward the resource
// token once it is done with it.
type inquireMsg struct{ R resource.ID }

// Kind implements network.Message.
func (inquireMsg) Kind() string { return "BL.Inquire" }

// resTokenMsg transfers the resource token of r.
type resTokenMsg struct{ R resource.ID }

// Kind implements network.Message.
func (resTokenMsg) Kind() string { return "BL.ResToken" }

type state uint8

const (
	idle         state = iota
	waitCT             // waiting for the control token
	awaitInquire       // holding a token owed to an INQUIRE in flight; not registered yet
	collecting         // registered; waiting for resource tokens
	inCS
)

// Node is one site of the Bouabdallah–Laforest algorithm.
type Node struct {
	env alg.Env
	nt  *naimitrehel.Instance

	st      state
	want    resource.Set // resources of the current request
	holding resource.Set // resource tokens present at this site

	// nextHolder[r] is the site whose INQUIRE for r was deferred until
	// our release or, when it found us waiting for the control token,
	// our registration.
	nextHolder []network.NodeID
}

// NewFactory returns the factory for driver.Run. Site 0 initially holds
// the control token with every resource token inside it.
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
	nd.want = resource.NewSet(m)
	nd.holding = resource.NewSet(m)
	nd.nextHolder = make([]network.NodeID, m)
	for r := range nd.nextHolder {
		nd.nextHolder[r] = network.None
	}
	send := func(to network.NodeID, msg naimitrehel.Msg) { env.Send(to, ctWire{msg}) }
	nd.nt = naimitrehel.New(env.ID(), 0, NewControlToken(m), send, nd.onControlToken)
}

// Request implements alg.Node: first acquire the control token.
func (nd *Node) Request(rs resource.Set) {
	if nd.st != idle {
		panic(fmt.Sprintf("bouabdallah: s%d requested while busy", nd.env.ID()))
	}
	nd.st = waitCT
	nd.want = rs.Clone()
	nd.nt.Request()
}

// onControlToken registers the current request atomically and releases
// the control token — unless a wanted token we hold is owed to an
// INQUIRE still in flight (see the package comment): then the control
// token goes on untouched and the request waits for that INQUIRE.
func (nd *Node) onControlToken(payload any) {
	ct := payload.(*ControlToken)
	self := nd.env.ID()
	owed := false
	nd.want.ForEach(func(r resource.ID) {
		if !ct.HasToken[r] && ct.Last[r] != self && nd.holding.Has(r) && nd.nextHolder[r] == network.None {
			owed = true
		}
	})
	if owed {
		nd.st = awaitInquire
		nd.nt.Release(ct)
		return
	}
	nd.want.ForEach(func(r resource.ID) {
		switch {
		case ct.HasToken[r]:
			ct.HasToken[r] = false
			nd.holding.Add(r)
		case ct.Last[r] == self:
			// Our token from a previous critical section; nobody
			// registered in between, so it is still here.
			if !nd.holding.Has(r) {
				panic(fmt.Sprintf("bouabdallah: s%d registered as last for %d but does not hold it", self, r))
			}
		default:
			nd.env.Send(ct.Last[r], inquireMsg{R: r})
			if nd.holding.Has(r) {
				// Someone registered behind our last critical section and
				// claimed the token we still hold while we waited for the
				// control token; yield to it and queue at the chain's end
				// through our own INQUIRE above.
				nd.sendResource(nd.nextHolder[r], r)
				nd.nextHolder[r] = network.None
			}
		}
		ct.Last[r] = self
	})
	nd.st = collecting
	nd.nt.Release(ct)
	nd.checkEnter()
}

func (nd *Node) sendResource(to network.NodeID, r resource.ID) {
	nd.holding.Remove(r)
	nd.env.Send(to, resTokenMsg{R: r})
}

func (nd *Node) checkEnter() {
	if nd.st != collecting || !nd.want.SubsetOf(nd.holding) {
		return
	}
	nd.st = inCS
	nd.env.Granted()
}

// Release implements alg.Node: forward every token with a deferred
// INQUIRE, keep the rest.
func (nd *Node) Release() {
	if nd.st != inCS {
		panic(fmt.Sprintf("bouabdallah: s%d released outside CS", nd.env.ID()))
	}
	nd.st = idle
	nd.want.ForEach(func(r resource.ID) {
		if to := nd.nextHolder[r]; to != network.None {
			nd.nextHolder[r] = network.None
			nd.sendResource(to, r)
		}
	})
	nd.want.Clear()
}

// Deliver implements alg.Node.
func (nd *Node) Deliver(from network.NodeID, m network.Message) {
	switch msg := m.(type) {
	case ctWire:
		nd.nt.Deliver(msg.M)
	case inquireMsg:
		nd.onInquire(from, msg.R)
	case resTokenMsg:
		nd.onResourceToken(msg.R)
	default:
		panic(fmt.Sprintf("bouabdallah: unexpected message %T", m))
	}
}

func (nd *Node) onInquire(from network.NodeID, r resource.ID) {
	if nd.holding.Has(r) && (nd.st == idle || nd.st == awaitInquire || !nd.want.Has(r)) {
		nd.sendResource(from, r)
		if nd.st == awaitInquire && nd.want.Has(r) {
			// The owed token is gone; try to register again (another
			// wanted token may be owed too — then we are back here).
			nd.st = waitCT
			nd.nt.Request()
		}
		return
	}
	if nd.nextHolder[r] != network.None {
		panic(fmt.Sprintf("bouabdallah: s%d got second INQUIRE for %d (from s%d, pending s%d)",
			nd.env.ID(), r, from, nd.nextHolder[r]))
	}
	nd.nextHolder[r] = from
}

func (nd *Node) onResourceToken(r resource.ID) {
	if nd.st != collecting || !nd.want.Has(r) || nd.holding.Has(r) {
		panic(fmt.Sprintf("bouabdallah: s%d got unexpected token %d (state %d)", nd.env.ID(), r, nd.st))
	}
	nd.holding.Add(r)
	nd.checkEnter()
}
