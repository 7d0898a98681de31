package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mralloc/internal/network"
	"mralloc/internal/resource"
)

func TestPrecedesTotalOrder(t *testing.T) {
	a := reqRef{Site: 1, ID: 9, Mark: 2.0}
	b := reqRef{Site: 2, ID: 1, Mark: 3.0}
	c := reqRef{Site: 2, ID: 7, Mark: 2.0} // tie with a on mark
	if !a.precedes(b) || b.precedes(a) {
		t.Fatal("mark ordering wrong")
	}
	if !a.precedes(c) || c.precedes(a) {
		t.Fatal("site tie-break wrong (s1 ≺ s2)")
	}
	if a.precedes(a) {
		t.Fatal("irreflexive violated")
	}
}

// Property: precedes is a strict total order on distinct (Mark, Site)
// pairs: exactly one of a/b, b/a holds, and it is transitive.
func TestPrecedesProperties(t *testing.T) {
	gen := func(r *rand.Rand) reqRef {
		return reqRef{Site: network.NodeID(r.Intn(8)), ID: int64(r.Intn(100)), Mark: float64(r.Intn(6))}
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		sameAB := a.Mark == b.Mark && a.Site == b.Site
		if !sameAB && a.precedes(b) == b.precedes(a) {
			t.Fatalf("totality broken for %v %v", a, b)
		}
		if a.precedes(b) && b.precedes(c) && !a.precedes(c) {
			t.Fatalf("transitivity broken for %v %v %v", a, b, c)
		}
	}
}

func TestQueueInsertSortedAndDedup(t *testing.T) {
	var q wqueue
	if !q.Insert(reqRef{Site: 3, ID: 1, Mark: 5}) {
		t.Fatal("first insert refused")
	}
	q.Insert(reqRef{Site: 1, ID: 1, Mark: 7})
	q.Insert(reqRef{Site: 2, ID: 4, Mark: 5}) // tie on mark: site 2 < site 3
	if q.Insert(reqRef{Site: 3, ID: 1, Mark: 5}) {
		t.Fatal("duplicate (site,id) accepted")
	}
	if len(q) != 3 {
		t.Fatalf("len = %d", len(q))
	}
	wantSites := []network.NodeID{2, 3, 1}
	for i, w := range wantSites {
		if q[i].Site != w {
			t.Fatalf("queue order %v", q)
		}
	}
	h, ok := q.Head()
	if !ok || h.Site != 2 {
		t.Fatalf("head = %v", h)
	}
	if p := q.PopHead(); p.Site != 2 || len(q) != 2 {
		t.Fatalf("pop = %v, rest %v", p, q)
	}
}

func TestQueueRemoveSiteAndContains(t *testing.T) {
	var q wqueue
	q.Insert(reqRef{Site: 1, ID: 1, Mark: 1})
	q.Insert(reqRef{Site: 2, ID: 2, Mark: 2})
	q.Insert(reqRef{Site: 1, ID: 3, Mark: 3})
	if !q.contains(1, 3) || q.contains(1, 2) {
		t.Fatal("contains wrong")
	}
	if n := q.RemoveSite(1); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if len(q) != 1 || q[0].Site != 2 {
		t.Fatalf("queue after removal: %v", q)
	}
	if n := q.RemoveSite(9); n != 0 {
		t.Fatal("removing absent site reported removals")
	}
}

// Property: any insertion sequence yields a queue sorted by "/" and pops
// drain in non-decreasing order.
func TestQueueSortedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		var q wqueue
		for i, v := range raw {
			q.Insert(reqRef{
				Site: network.NodeID(v % 7),
				ID:   int64(i),
				Mark: float64(v % 13),
			})
		}
		var prev *reqRef
		for len(q) > 0 {
			h := q.PopHead()
			if prev != nil && h.precedes(*prev) {
				return false
			}
			cp := h
			prev = &cp
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleStampsIndependent: what a node keeps of a departed token is a
// copy — the token is another site's to mutate from then on — and the
// records of two resources in one chunk do not overlap.
func TestStaleStampsIndependent(t *testing.T) {
	const n = 4
	nd := newFifoNet(n, 2*tableChunk, WithoutLoan()).nodes[1]
	if nd.staleStamps(3) != nil {
		t.Fatal("a stale record exists before any token left")
	}
	tok := newToken(3, n)
	tok.Counter = 9
	tok.LastReqC[0] = 7
	tok.LastCS[2] = 5
	tok.Queue.Insert(reqRef{Site: 1, ID: 1, Mark: 1})
	nd.keepStale(tok)
	next := newToken(4, n)
	next.Counter = 2
	next.LastReqC[0] = 1
	next.LastCS[n-1] = 1
	nd.keepStale(next)

	st := nd.staleStamps(3)
	if len(st) != 2*n+1 || st[0] != 7 || st[n+2] != 5 || st[2*n] != 9 {
		t.Fatalf("stale record of r3 = %v", st)
	}
	if st := nd.staleStamps(4); st[0] != 1 || st[2*n-1] != 1 || st[2*n] != 2 {
		t.Fatalf("stale record of r4 = %v", st)
	}
	tok.LastCS[2] = 99
	if st[n+2] != 5 {
		t.Fatal("the stale record aliases the token's stamps")
	}
	if st := nd.staleStamps(2); st == nil || st[2*n] != 0 {
		t.Fatalf("r2 shares the chunk and never left: record %v, want zeros", st)
	}
	if nd.staleStamps(tableChunk) != nil {
		t.Fatal("a chunk none of whose tokens left was made")
	}
}

func TestTokenLoanHelpers(t *testing.T) {
	tok := newToken(0, 4)
	ms := resource.FromIDs(4, 1, 2)
	ref := reqRef{Site: 2, ID: 7, Mark: 1}
	tok.Loans = append(tok.Loans, loanEntry{Ref: ref, R: 0, Missing: ms})
	if !tok.hasLoan(ref, 0) {
		t.Fatal("hasLoan missed entry")
	}
	if tok.hasLoan(reqRef{Site: 2, ID: 8}, 0) || tok.hasLoan(ref, 1) {
		t.Fatal("hasLoan false positive")
	}
	tok.Loans = append(tok.Loans, loanEntry{Ref: reqRef{Site: 3, ID: 1}, R: 0, Missing: ms})
	tok.removeLoans(2)
	if len(tok.Loans) != 1 || tok.Loans[0].Ref.Site != 3 {
		t.Fatalf("loans after removal: %+v", tok.Loans)
	}
}

func TestVisitedHelpers(t *testing.T) {
	v := []network.NodeID{1, 4}
	if !visitedContains(v, 4) || visitedContains(v, 2) {
		t.Fatal("visitedContains wrong")
	}
	// stamp writes v ∪ {s} into the record's own storage: the input is
	// neither mutated nor aliased, a member is not duplicated, and what
	// a recycled record still held is overwritten.
	b := &batch{Visited: make([]network.NodeID, 0, 8)}
	b.stamp(v, 2)
	if len(b.Visited) != 3 || b.Visited[0] != 1 || b.Visited[1] != 4 || b.Visited[2] != 2 {
		t.Fatalf("stamp = %v, want [1 4 2]", b.Visited)
	}
	b.Visited[0] = 9
	if len(v) != 2 || v[0] != 1 {
		t.Fatal("stamp aliased or mutated its input")
	}
	b.Visited = b.Visited[:0]
	if b.stamp(v, 1); len(b.Visited) != 2 {
		t.Fatalf("stamp duplicated a member: %v", b.Visited)
	}
	var own batch
	if own.stamp(nil, 3); len(own.Visited) != 1 || own.Visited[0] != 3 {
		t.Fatalf("originating stamp = %v, want [3]", own.Visited)
	}
	// A list that must grow gets room for a path; one that fits stays
	// where it is (a decoded record's list is cut to its message).
	if cap(own.Visited) < visitedRoom {
		t.Fatalf("a fresh record's list got room for %d sites, want %d", cap(own.Visited), visitedRoom)
	}
	fits := &batch{Visited: make([]network.NodeID, 0, 2)}
	at := &fits.Visited[:1][0]
	if fits.stamp([]network.NodeID{1}, 2); cap(fits.Visited) != 2 || &fits.Visited[0] != at {
		t.Fatal("a list with room for the stamp was regrown")
	}
}
