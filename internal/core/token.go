package core

import (
	"fmt"
	"sort"

	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// reqRef identifies one critical-section request of one site, with the
// mark A assigned to it. It is the element type of wQueue.
type reqRef struct {
	Site network.NodeID
	ID   int64
	Mark float64
}

// precedes implements the paper's total order "/": by mark, ties broken
// by the site order ≺.
func (a reqRef) precedes(b reqRef) bool {
	if a.Mark != b.Mark {
		return a.Mark < b.Mark
	}
	return a.Site < b.Site
}

func (a reqRef) String() string {
	return fmt.Sprintf("(s%d#%d m=%.3f)", a.Site, a.ID, a.Mark)
}

// wqueue is a waiting queue sorted by "/" with (Site, ID) dedup — the
// paper's wQueue. It is small (bounded by N pending requests), so a
// sorted slice beats anything fancier.
type wqueue []reqRef

// Insert adds e keeping order; it reports false if an entry with the
// same (Site, ID) is already present (pseudo-code line 154). A queue
// with no storage takes its first here (room), as a token's loan list
// does where a loan is queued: not in newToken, so a token nobody waits
// for pays nothing, and not by doubling from one entry, which cost
// sim_paper 0.2 objects per grant.
//
// Insert is on the token hot path (every request that reaches an owner
// competing for the resource lands here, and queues grow with N), so
// both the position and the duplicate check use binary search instead
// of the old full linear scans. Precondition making that sound: a
// request's Mark is assigned once, at initiation, and never changes —
// so a duplicate (Site, ID) can only sort where e sorts, i.e. inside
// the run of order-equal entries at the insertion point. Protocol code
// upholds this everywhere (the mark rides the request unchanged along
// every forwarding path); queues decoded off the wire are installed
// verbatim, not built through Insert, so hostile input cannot break
// the invariant here.
func (q *wqueue) Insert(e reqRef) bool {
	i := sort.Search(len(*q), func(k int) bool { return !(*q)[k].precedes(e) })
	for j := i; j < len(*q) && !e.precedes((*q)[j]); j++ {
		if (*q)[j].Site == e.Site && (*q)[j].ID == e.ID {
			return false
		}
	}
	*q = append(room(*q), reqRef{})
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = e
	return true
}

// Head returns the minimum entry; ok is false when empty.
func (q wqueue) Head() (reqRef, bool) {
	if len(q) == 0 {
		return reqRef{}, false
	}
	return q[0], true
}

// PopHead removes and returns the minimum entry.
func (q *wqueue) PopHead() reqRef {
	h := (*q)[0]
	*q = append((*q)[:0], (*q)[1:]...)
	return h
}

// RemoveSite deletes every entry of the given site, reporting how many
// were removed (used when lending and when returning a borrowed token).
func (q *wqueue) RemoveSite(s network.NodeID) int {
	kept := (*q)[:0]
	removed := 0
	for _, x := range *q {
		if x.Site == s {
			removed++
		} else {
			kept = append(kept, x)
		}
	}
	*q = kept
	return removed
}

// loanEntry is one pending loan request stored in a token's wLoan.
type loanEntry struct {
	Ref reqRef
	R   resource.ID
	// Missing is never written once queued: its words are cut from
	// the borrower's loanSlab, which never hands them out twice, or
	// freshly decoded. Tokens, delta shadows and records share it.
	Missing resource.Set
}

// token is the unique movable state of one resource (pseudo-code type
// Token): its counter, obsolescence stamps, waiting queue, pending
// loans and lender.
type token struct {
	R        resource.ID
	Counter  int64
	LastReqC []int64 // per site: last counter-request id answered
	LastCS   []int64 // per site: last critical-section id satisfied
	Queue    wqueue
	Loans    []loanEntry
	Lender   network.NodeID // None unless currently lent
	// Epoch is the token's authority generation. It starts at 0 and is
	// bumped only by lease-expiry regeneration (node.go): a resurfacing
	// copy of the token from a dead epoch is fenced at install instead
	// of splitting ownership. Distinct from the delta codec's stream
	// epoch (delta.go), which names encoder cache generations — Epoch
	// is protocol state and travels inside the token itself.
	Epoch int64
	// Ver counts the token's transfers within its epoch: sendToken,
	// the one place a token leaves a node, bumps it. (Epoch, Ver) names
	// one holding of the token, which is what a holder hint carries.
	Ver int64
}

// tokVer is one holding of a resource's token: a regenerated token
// starts a new epoch, so versions compare by epoch first.
type tokVer struct{ Epoch, Ver int64 }

func (t *token) version() tokVer { return tokVer{t.Epoch, t.Ver} }

// newer reports whether a is a later holding than b.
func (a tokVer) newer(b tokVer) bool {
	return a.Epoch > b.Epoch || a.Epoch == b.Epoch && a.Ver > b.Ver
}

func newToken(r resource.ID, n int) *token {
	return &token{
		R:        r,
		Counter:  1,
		LastReqC: make([]int64, n),
		LastCS:   make([]int64, n),
		Lender:   network.None,
	}
}

// obsolete implements the §4.2.1 staleness test: the request's site has
// since completed that critical section or a later one, or — a counter
// request — has since been answered.
func obsolete(req *request, lastReqC, lastCS []int64) bool {
	return req.ID <= lastCS[req.Init] ||
		(req.Kind == reqCnt && req.ID <= lastReqC[req.Init])
}

// obsolete judges req by the authoritative stamps; Node.staleObsolete
// is the non-owner's version.
func (t *token) obsolete(req *request) bool {
	return obsolete(req, t.LastReqC, t.LastCS)
}

// hasLoan reports whether a loan with the same (Site, ID, R) is queued.
func (t *token) hasLoan(ref reqRef, r resource.ID) bool {
	for _, l := range t.Loans {
		if l.Ref.Site == ref.Site && l.Ref.ID == ref.ID && l.R == r {
			return true
		}
	}
	return false
}

// removeLoans drops every loan entry of the given site.
func (t *token) removeLoans(s network.NodeID) {
	kept := t.Loans[:0]
	for _, l := range t.Loans {
		if l.Ref.Site != s {
			kept = append(kept, l)
		}
	}
	t.Loans = kept
}
