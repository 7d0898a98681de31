package core

import (
	"fmt"
	"slices"

	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// reqKind discriminates the three request message types of §4.2.
type reqKind uint8

const (
	reqCnt  reqKind = iota // ask the current counter value
	reqRes                 // ask the resource token
	reqLoan                // ask a loan of the missing resources
)

func (k reqKind) String() string {
	switch k {
	case reqCnt:
		return "ReqCnt"
	case reqRes:
		return "ReqRes"
	case reqLoan:
		return "ReqLoan"
	}
	return "Req?"
}

// request is one request travelling toward a token holder. It holds
// no pointer (TestHotRecordsPointerFree): the slices of requests on the
// hot path — batch.Reqs, outbox.reqs, the pending histories — are
// memory the collector never scans and a copy needs no write barrier.
// The one variable-size field a request has, the missing set of a
// reqLoan, rides beside those slices instead (batch.Missing).
type request struct {
	Kind reqKind
	// Single marks the §4.6.1 fast path: a reqCnt the root converts
	// into a reqRes by applying A itself.
	Single bool
	R      resource.ID
	Init   network.NodeID
	ID     int64
	// Mark is A's value for reqRes/reqLoan.
	Mark float64
}

func (r *request) ref() reqRef { return reqRef{Site: r.Init, ID: r.ID, Mark: r.Mark} }

func (r request) String() string {
	return fmt.Sprintf("%v[r%d s%d#%d]", r.Kind, r.R, r.Init, r.ID)
}

// batch is the one record both LASS message kinds travel in. It owns
// its storage: a sender fills a record and gives it away for good with
// Env.Send, the receiving node keeps it and, once the activation that
// consumed it has flushed, refills it for a message of its own (see
// outbox.recycle). One layout for both kinds lets a site that mostly
// receives requests and sends responses, or the reverse, reuse what it
// was sent whatever its kind.
type batch struct {
	// Visited is the visited-sites set of §4.2.1, shared by all the
	// requests of a reqBatch.
	Visited []network.NodeID
	Reqs    []request
	// Missing holds the full missing set of every reqLoan in Reqs, in
	// request order: the i-th loan's set is Missing[i]. Position is the
	// only link between the two, so whoever walks Reqs (loanSets) takes
	// a set for every loan it passes, whatever it does with the request.
	Missing []resource.Set
	// Counters and Tokens are a respBatch's counter replies and tokens.
	Counters []counterVal
	Tokens   []*token
	// Hints are the tokens the sender held when it sent the record, by
	// resource (Node.held), or none when the receiver was sent that list
	// already: a receiver that does not own one repoints its father
	// pointer at the sender when the hint is newer than what it knows
	// (Node.onHints).
	Hints []hint
	// Relay holds the holdings its sender made or learned that the
	// receiver was not sent yet, in a record of either kind (Node.relays):
	// the receiver applies them by the hints' rule (Node.onRelays).
	Relay []relay

	// The lists' first storage (newBatch). A loan round asks with one
	// reqLoan per missing resource and a site forwards what it was
	// sent, so a batch with more than one loan is rare; a request
	// travels a handful of sites, and a batch carries a request or two,
	// a counter or two and a token or two, and its sender holds a few
	// tokens, and learns of up to eight holdings between two records to
	// one site (at 32 sites, room for four relays left 4 % more
	// allocations per grant than room for eight). With room for that in
	// the record, a fresh (decoded) record
	// of the common case is one allocation; a list that outgrows its
	// room moves to storage of its own and keeps it across reuse. The
	// lists are the record's content; the explorer reads only them.
	oneSet   [1]resource.Set   `explore:"-"`
	visited  [4]network.NodeID `explore:"-"`
	reqs     [2]request        `explore:"-"`
	counters [2]counterVal     `explore:"-"`
	tokens   [2]*token         `explore:"-"`
	hints    [4]hint           `explore:"-"`
	relays   [8]relay          `explore:"-"`
}

// newBatch returns an empty record whose lists start in its own first
// storage. Every record a node or a decoder fills is built here.
func newBatch() *batch {
	b := new(batch)
	b.Visited, b.Reqs, b.Missing = b.visited[:0], b.reqs[:0], b.oneSet[:0]
	b.Counters, b.Tokens, b.Hints = b.counters[:0], b.tokens[:0], b.hints[:0]
	b.Relay = b.relays[:0]
	return b
}

// reqBatch aggregates request messages to one destination (§4.2.2).
type reqBatch batch

// Kind implements network.Message. Like respBatch's it has a pointer
// receiver and reads nothing, so asking for a record's kind never
// touches the record.
func (*reqBatch) Kind() string { return "LASS.Request" }

// loanSets hands out the missing sets of a request list's reqLoans in
// request order.
type loanSets []resource.Set

// next returns the set that belongs to req, the zero Set unless req is
// a reqLoan. Call it once per request, in order.
func (l *loanSets) next(req *request) (miss resource.Set) {
	if req.Kind == reqLoan {
		miss, *l = (*l)[0], (*l)[1:]
	}
	return miss
}

// addReq appends r and, when r is a reqLoan, its missing set.
func (b *batch) addReq(r *request, miss resource.Set) {
	b.Reqs = append(b.Reqs, *r)
	if r.Kind == reqLoan {
		b.Missing = append(b.Missing, miss)
	}
}

func visitedContains(v []network.NodeID, s network.NodeID) bool {
	for _, x := range v {
		if x == s {
			return true
		}
	}
	return false
}

// visitedRoom is the least room a record's visited list gets when it
// has to grow: a request's path is a handful of sites, and a list that
// starts with room for one and doubles its way there costs a fresh
// record three allocations where this costs one.
const visitedRoom = 8

// stamp writes visited ∪ {self} — the visited-sites set of §4.2.1 as
// the next hop must see it — into b's own storage.
func (b *batch) stamp(visited []network.NodeID, self network.NodeID) {
	need := len(visited) + 1
	if cap(b.Visited) < need {
		need = max(need, visitedRoom)
	}
	b.Visited = append(slices.Grow(b.Visited, need), visited...)
	if !visitedContains(visited, self) {
		b.Visited = append(b.Visited, self)
	}
}

// counterVal is one Counter reply: the value assigned to request ID of
// the destination site for resource R. (The id is a hardening deviation;
// see the package comment.)
type counterVal struct {
	R   resource.ID
	Val int64
	ID  int64
}

// respBatch aggregates response messages — counter replies and tokens —
// to one destination (§4.2.2).
type respBatch batch

// Kind implements network.Message.
func (*respBatch) Kind() string { return "LASS.Response" }
