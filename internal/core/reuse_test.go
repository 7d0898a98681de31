package core

import (
	"reflect"
	"slices"
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// coreWorld is an explore.World of core Nodes, the Nodes at hand: the
// hand-stepped fabric of the record-reuse tests and of every test that
// inspects what a node sends. Drain(nil) delivers in send order (so
// every link is FIFO) until the system is quiet. It allocates nothing
// once its queue has grown, so an allocation seen across it is the
// protocol's. A timed one (newTimed) also has sites that can crash and
// the list of its grants.
type coreWorld struct {
	*explore.World
	nodes  []*Node
	sites  []*mortal
	grants []network.NodeID
}

func newWorld(n, m int, opt Options) *coreWorld {
	f := &coreWorld{World: explore.New(NewFactory(opt), n, m), nodes: make([]*Node, n)}
	for i := range f.nodes {
		f.nodes[i] = f.Node(i).(*Node)
	}
	return f
}

// acquire drives node id through Request → Drain and fails the test
// unless the grant arrived.
func (f *coreWorld) acquire(t *testing.T, id int, rs resource.Set) {
	t.Helper()
	f.Request(id, rs)
	f.Drain(nil)
	if !f.InCS(id) {
		t.Fatalf("node %d not granted %v", id, rs)
	}
}

func (f *coreWorld) release(id int) {
	f.Release(id)
	f.Drain(nil)
}

// TestCoreSteadyStateAllocs pins the receiver-keeps-the-record message
// path at what it is for: once every site has been sent the records it
// needs, a full Request → counters → tokens → Release cycle that crosses
// nodes allocates nothing, and a loan round allocates one object — the
// Missing set every ReqLoan of the round shares, immutable and therefore
// never recycled.
func TestCoreSteadyStateAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	t.Run("cycle", func(t *testing.T) {
		const n, m = 4, 8
		f := newWorld(n, m, WithoutLoan())
		sets := make([]resource.Set, n)
		for i := range sets {
			// Consecutive sites overlap in one resource, so the next
			// requester finds it held inside a critical section (counter
			// reply, queued ReqRes, token on release) and the other two
			// idle somewhere behind stale father pointers (forwarded
			// ReqCnt, token sent directly).
			sets[i] = ids(m, i, (i+1)%n, 4+i)
		}
		cur := 0
		f.acquire(t, cur, sets[cur])
		rotation := func() {
			for k := 0; k < n; k++ {
				next := (cur + 1) % n
				f.Request(next, sets[next])
				f.Drain(nil)
				if f.InCS(next) {
					t.Fatalf("node %d granted %v while node %d holds %v", next, sets[next], cur, sets[cur])
				}
				f.release(cur)
				if !f.InCS(next) {
					t.Fatalf("node %d not granted after node %d released", next, cur)
				}
				cur = next
			}
		}
		for i := 0; i < 8; i++ {
			rotation() // warm-up: free lists, queues, histories reach their sizes
		}
		var before, after Counters
		for _, nd := range f.nodes {
			before.Add(nd.Counters())
		}
		if got := testing.AllocsPerRun(50, rotation); got != 0 {
			t.Errorf("%v allocs per rotation of %d cross-node acquire/release cycles, want 0", got, n)
		}
		for _, nd := range f.nodes {
			after.Add(nd.Counters())
		}
		if after != before {
			t.Errorf("the cycle is meant to stay off the yield path: counters %+v → %+v", before, after)
		}
	})

	t.Run("loan", func(t *testing.T) {
		// The §4.5 situation of TestLoanScenario, made repeatable: the
		// lender waits in waitCS owning r0 while the holder sits on r3
		// and r4 (two missing: the lender asks for no loan of its own);
		// the borrower reaches waitCS missing exactly r0, asks for a loan,
		// runs its critical section on the borrowed token and returns it.
		// A borrower sends two records more than it is sent and its
		// lender the reverse, so every other round is the mirror image
		// (lender ↔ borrower, parker ↔ holder): over a pair of rounds
		// every site is sent what it sends.
		const n, m = 4, 8
		f := newWorld(n, m, WithLoan())
		r034, r34, r1, r01 := ids(m, 0, 3, 4), ids(m, 3, 4), ids(m, 1), ids(m, 0, 1)
		first := 0
		round := func() {
			lender, borrower, parker, holder := first, 1-first, 2+first, 3-first
			first = 1 - first
			f.acquire(t, holder, r34) // into a long critical section
			f.Request(lender, r034)
			f.Drain(nil) // lender: owns r0, queued on r3 and r4
			f.acquire(t, parker, r1)
			f.release(parker) // r1 parked at an idle site, its counter bumped
			f.acquire(t, borrower, r01)
			if st := f.nodes[lender].st; st != stWaitCS {
				t.Fatalf("lender in state %v while the borrower runs, want waitCS", st)
			}
			f.release(borrower) // the borrowed token goes home
			f.release(holder)   // r3 and r4 reach the lender, which enters
			if f.nodes[lender].st != stInCS {
				t.Fatalf("lender never completed: state %v", f.nodes[lender].st)
			}
			f.release(lender)
		}
		const rounds = 2
		rotation := func() {
			for k := 0; k < rounds; k++ {
				round()
			}
		}
		// Extra bumps of r1's counter keep the borrower's mark above the
		// lender's in every round: a loan, not a priority yield.
		for i := 0; i < 3; i++ {
			f.acquire(t, 2, r1)
			f.release(2)
		}
		for i := 0; i < 8; i++ {
			rotation()
		}
		var before, after Counters
		for _, nd := range f.nodes {
			before.Add(nd.Counters())
		}
		const runs = 20
		got := testing.AllocsPerRun(runs, rotation)
		for _, nd := range f.nodes {
			after.Add(nd.Counters())
		}
		// AllocsPerRun warms up with one extra run.
		if want := rounds * (runs + 1); after.LoanAsks-before.LoanAsks != want || after.LoansGranted-before.LoansGranted != want ||
			after.Yields != before.Yields || after.LoanReturns != before.LoanReturns {
			t.Fatalf("the scenario left the one-loan-a-round path: counters %+v → %+v, want %d more loans", before, after, want)
		}
		if got > rounds {
			t.Errorf("%v allocs per %d loan rounds, want ≤ 1 each (the shared Missing set)", got, rounds)
		}
	})
}

// TestHazardRecycleAfterFlush: a site that is delivered a batch,
// forwards part of it and answers part of it in one activation builds
// the forwarded batch from the delivered record's visited set — so the
// record may join the free list only after the flush. Recycled earlier,
// it would be scrubbed (and, last in, be the very record the flush
// refills) and the forwarded batch would leave with a visited set of
// one.
func TestHazardRecycleAfterFlush(t *testing.T) {
	const n, m = 4, 4
	f := newWorld(n, m, WithoutLoan())
	// Node 2 ends up owning r1 (idle); r0 stays with node 0. Node 2's
	// free list holds what the set-up delivered to it.
	f.acquire(t, 2, ids(m, 1))
	f.release(2)
	mid := f.nodes[2]
	if !mid.owned.Has(1) || mid.owned.Has(0) || mid.tokDir[0] != 0 {
		t.Fatalf("set-up: node 2 owns %v, father of r0 = %d", mid.owned, mid.tokDir[0])
	}
	if len(mid.out.free) == 0 {
		t.Fatal("set-up left node 2 no recycled record: the hazard needs one to refill")
	}
	in := &reqBatch{
		Visited: []network.NodeID{3, 1},
		Reqs: []request{
			{Kind: reqCnt, R: 0, Init: 3, ID: 1},
			{Kind: reqCnt, R: 1, Init: 3, ID: 1},
		},
	}
	mid.Deliver(1, in)
	sent := f.InFlight()
	if len(sent) != 2 {
		t.Fatalf("activation sent %d messages, want a forwarded batch and an answer", len(sent))
	}
	fwd, ok := sent[0].M.(*reqBatch)
	if !ok || sent[0].To != 0 {
		t.Fatalf("first message %T to %d, want the batch forwarded to node 0", sent[0].M, sent[0].To)
	}
	if want := []network.NodeID{3, 1, 2}; !reflect.DeepEqual(fwd.Visited, want) {
		t.Errorf("forwarded visited set %v, want %v", fwd.Visited, want)
	}
	if len(fwd.Reqs) != 1 || !reflect.DeepEqual(fwd.Reqs[0], request{Kind: reqCnt, R: 0, Init: 3, ID: 1}) {
		t.Errorf("forwarded requests %v, want the one for r0", fwd.Reqs)
	}
	ans, ok := sent[1].M.(*respBatch)
	if !ok || sent[1].To != 3 || len(ans.Tokens) != 1 || ans.Tokens[0].R != 1 {
		t.Fatalf("second message %+v to %d, want r1's token sent to node 3", sent[1].M, sent[1].To)
	}
	if (*batch)(fwd) == (*batch)(in) || (*batch)(ans) == (*batch)(in) {
		t.Error("the delivered record left again in the activation that consumed it")
	}
	if last := mid.out.free[len(mid.out.free)-1]; last != (*batch)(in) {
		t.Error("the delivered record did not join the free list after the flush")
	}
}

// TestHazardRecycledRecordScrubbed: a record waiting on a free list may
// sit there for long; it must pin no token (the token is some other
// site's by then) and no missing set — over the whole capacity of its
// slices, not only their length. Requests hold no pointer
// (TestHotRecordsPointerFree) and are truncated, not cleared.
func TestHazardRecycledRecordScrubbed(t *testing.T) {
	const n, m = 4, 8
	f := newWorld(n, m, WithLoan())
	// Loan rounds and plain cycles: every record kind and every field
	// gets used, Missing sets and multi-token responses included.
	for i := 0; i < 6; i++ {
		f.acquire(t, 3, ids(m, 3))
		f.Request(1, ids(m, 0, 3))
		f.Drain(nil)
		f.acquire(t, 0, ids(m, 0, 1))
		f.release(0)
		f.release(3)
		f.release(1)
		f.acquire(t, 2, ids(m, 0, 1, 3, 5))
		f.release(2)
	}
	var asks, records, sets int
	for id, nd := range f.nodes {
		asks += nd.Counters().LoanAsks
		for _, b := range nd.out.free {
			records++
			if len(b.Visited)+len(b.Reqs)+len(b.Missing)+len(b.Counters)+len(b.Tokens) != 0 {
				t.Errorf("node %d: recycled record still has contents: %+v", id, b)
			}
			for _, tk := range b.Tokens[:cap(b.Tokens)] {
				if tk != nil {
					t.Errorf("node %d: recycled record pins the token of r%d", id, tk.R)
				}
			}
			sets += cap(b.Missing)
			for _, s := range b.Missing[:cap(b.Missing)] {
				if s.Universe() != 0 {
					t.Errorf("node %d: recycled record keeps the missing set %v", id, s)
				}
			}
		}
		if len(nd.out.miss) != 0 {
			t.Errorf("node %d: outbox keeps %d missing sets between activations", id, len(nd.out.miss))
		}
		for _, s := range nd.out.miss[:cap(nd.out.miss)] {
			if s.Universe() != 0 {
				t.Errorf("node %d: flushed outbox keeps the missing set %v", id, s)
			}
		}
	}
	if asks == 0 || records == 0 || sets == 0 {
		t.Fatalf("scenario exercised nothing: %d loan asks, %d recycled records with room for %d sets", asks, records, sets)
	}
}

// hintChecked is a core node whose Env checks every LASS record it
// sends against what it holds, and which remembers the records it was
// delivered and how many hints each carried.
type hintChecked struct {
	*Node
	t         *testing.T
	delivered map[*batch]int            // record → hints it arrived with
	sent      map[network.NodeID][]hint // per site: the last hints sent to it
	reused    int                       // records sent again after their delivery here
	shrunk    int                       // ... carrying fewer hints than they arrived with
	carried   int                       // records sent with hints
}

type hintEnv struct {
	alg.Env
	c *hintChecked
}

func (c *hintChecked) Attach(env alg.Env) { c.Node.Attach(&hintEnv{env, c}) }

func (c *hintChecked) Deliver(from network.NodeID, m network.Message) {
	if b := asBatch(m); b != nil {
		c.delivered[b] = len(b.Hints)
	}
	c.Node.Deliver(from, m)
}

func (e *hintEnv) Send(to network.NodeID, m network.Message) {
	c := e.c
	if b := asBatch(m); b != nil {
		// A record carries what the site holds, or nothing when the
		// last list it sent that site already says so.
		switch {
		case len(b.Hints) > 0 && !slices.Equal(b.Hints, c.held):
			c.t.Errorf("s%d sends %s with hints %v while it holds %v", e.ID(), m.Kind(), b.Hints, c.held)
		case len(c.held) == 0:
			c.sent[to] = nil // the empty list, or none: the same news
		case len(b.Hints) == 0 && !slices.Equal(c.sent[to], c.held):
			c.t.Errorf("s%d sends %s without hints to s%d, last told %v, while it holds %v", e.ID(), m.Kind(), to, c.sent[to], c.held)
		case len(b.Hints) > 0:
			c.sent[to] = slices.Clone(b.Hints)
			c.carried++
		}
		if had, ok := c.delivered[b]; ok {
			c.reused++
			if had > len(b.Hints) {
				c.shrunk++
			}
			delete(c.delivered, b)
		}
	}
	e.Env.Send(to, m)
}

func asBatch(m network.Message) *batch {
	switch b := m.(type) {
	case *reqBatch:
		return (*batch)(b)
	case *respBatch:
		return (*batch)(b)
	}
	return nil
}

// TestHazardRecycledRecordHints: a record a node is delivered carries
// its sender's hints; refilled for a message of the node's own, it must
// carry the node's hints and nothing of the previous message's — a
// stale hint would aim a receiver's father pointer at a site that never
// held the token at that version. Every record every site sends is
// checked against what the site holds at that moment — the full list,
// or none when the last list sent to that receiver is the same — over
// loan rounds and plain cycles in which sites hold different numbers of
// tokens.
func TestHazardRecycledRecordHints(t *testing.T) {
	const n, m = 4, 8
	checked := make([]*hintChecked, n)
	w := explore.New(func(n, m int) []alg.Node {
		nodes := make([]alg.Node, n)
		for i, a := range NewFactory(WithLoan())(n, m) {
			checked[i] = &hintChecked{Node: a.(*Node), t: t, delivered: map[*batch]int{}, sent: map[network.NodeID][]hint{}}
			nodes[i] = checked[i]
		}
		return nodes
	}, n, m)
	f := &coreWorld{World: w, nodes: make([]*Node, n)}
	for i, c := range checked {
		f.nodes[i] = c.Node
	}
	for i := 0; i < 6; i++ {
		f.acquire(t, 3, ids(m, 3))
		f.Request(1, ids(m, 0, 3))
		f.Drain(nil)
		f.acquire(t, 0, ids(m, 0, 1))
		f.release(0)
		f.release(3)
		f.release(1)
		f.acquire(t, 2, ids(m, 0, 1, 3, 5))
		f.release(2)
	}
	var reused, shrunk, carried int
	for _, c := range checked {
		reused += c.reused
		shrunk += c.shrunk
		carried += c.carried
	}
	if shrunk == 0 || carried == 0 {
		t.Fatalf("no site refilled a record it was sent with fewer hints than it arrived with (%d reused, %d sent with hints)", reused, carried)
	}
}
