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

// request is one request travelling toward a token holder.
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
	// Missing is the full missing set of a reqLoan.
	Missing resource.Set
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
	// Counters and Tokens are a respBatch's counter replies and tokens.
	Counters []counterVal
	Tokens   []*token
}

// reqBatch aggregates request messages to one destination (§4.2.2).
type reqBatch batch

// Kind implements network.Message. Like respBatch's it has a pointer
// receiver and reads nothing, so asking for a record's kind never
// touches the record.
func (*reqBatch) Kind() string { return "LASS.Request" }

func visitedContains(v []network.NodeID, s network.NodeID) bool {
	for _, x := range v {
		if x == s {
			return true
		}
	}
	return false
}

// stamp writes visited ∪ {self} — the visited-sites set of §4.2.1 as
// the next hop must see it — into b's own storage.
func (b *batch) stamp(visited []network.NodeID, self network.NodeID) {
	b.Visited = append(slices.Grow(b.Visited, len(visited)+1), visited...)
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
