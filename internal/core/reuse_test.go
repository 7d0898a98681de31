package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/leakcheck"
	"mralloc/internal/live"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/transport"
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

func newWorld(n, m int, opt Options) *coreWorld { return worldOf(NewFactory(opt), n, m) }

// worldOf is a coreWorld of the nodes fac builds: core Nodes, or
// checked ones.
func worldOf(fac alg.Factory, n, m int) *coreWorld {
	f := &coreWorld{World: explore.New(fac, n, m), nodes: make([]*Node, n)}
	for i := range f.nodes {
		switch x := f.Node(i).(type) {
		case *Node:
			f.nodes[i] = x
		case *checked:
			f.nodes[i] = x.Node
		case *scrubCheck:
			f.nodes[i] = x.Node
		}
	}
	return f
}

// withRing is NewFactory(opt) whose nodes keep a relay ring of c
// entries whatever the site count. relayCap gives none below 16 sites,
// so the worlds and shapes small enough to step or search by hand ask
// for one to exercise the ring.
func withRing(opt Options, c int) alg.Factory {
	return func(n, m int) []alg.Node {
		nodes := NewFactory(opt)(n, m)
		for _, a := range nodes {
			a.(*Node).log = newHoldings(n, m, c)
		}
		return nodes
	}
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
// path at what it is for: once the sites have been sent the records they
// need, a full Request → counters → tokens → Release cycle that crosses
// nodes allocates nothing, and so does a loan round. The Missing set
// every ReqLoan of a round shares is immutable and never recycled; its
// words are cut from the borrower's slab, one chunk per tableChunk
// rounds, which AllocsPerRun's per-run average rounds down to 0.
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
			rotation() // warm-up: the pool, queues, histories reach their sizes
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
		if got != 0 {
			t.Errorf("%v allocs per %d loan rounds, want 0", got, rounds)
		}
	})
}

// TestHazardRecycleAfterFlush: a site that is delivered a batch,
// forwards part of it and answers part of it in one activation builds
// the forwarded batch from the delivered record's visited set — so the
// record may go back to the pool only after the flush. Recycled
// earlier, it would be scrubbed (and, last in, be the very record the
// flush takes from the pool) and the forwarded batch would leave with
// a visited set of one.
func TestHazardRecycleAfterFlush(t *testing.T) {
	const n, m = 4, 4
	f := newWorld(n, m, WithoutLoan())
	// Node 2 ends up owning r1 (idle); r0 stays with node 0.
	f.acquire(t, 2, ids(m, 1))
	f.release(2)
	mid := f.nodes[2]
	if !mid.owned.Has(1) || mid.owned.Has(0) || mid.tokDir[0] != 0 {
		t.Fatalf("set-up: node 2 owns %v, father of r0 = %d", mid.owned, mid.tokDir[0])
	}
	in := &reqBatch{
		Visited: []network.NodeID{3, 1},
		Reqs: []request{
			{Kind: reqCnt, R: 0, Init: 3, ID: 1},
			{Kind: reqCnt, R: 1, Init: 3, ID: 1},
		},
	}
	mid.Deliver(1, in)
	if len(in.Visited)+len(in.Reqs) != 0 {
		t.Errorf("the delivered record was not recycled: visited %v, requests %v", in.Visited, in.Reqs)
	}
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
}

// scrubCheck is a core node that checks every record it is delivered
// once Deliver has returned, when the record waits in the pool: it must
// pin no token (the token is some other site's by then) and no missing
// set, over the whole capacity of its lists, not only their length.
// Requests hold no pointer (TestHotRecordsPointerFree) and are
// truncated, not cleared.
type scrubCheck struct {
	*Node
	t              *testing.T
	records, loans int // records checked; ... that arrived with a missing set
	tokens         int // ... that arrived with a token
}

func (c *scrubCheck) Deliver(from network.NodeID, m network.Message) {
	b := asBatch(m)
	if b == nil {
		c.Node.Deliver(from, m)
		return
	}
	if len(b.Missing) > 0 {
		c.loans++
	}
	if len(b.Tokens) > 0 {
		c.tokens++
	}
	c.Node.Deliver(from, m)
	c.records++
	if len(b.Visited)+len(b.Reqs)+len(b.Missing)+len(b.Counters)+len(b.Tokens)+len(b.Holdings) != 0 {
		c.t.Errorf("recycled record still has contents: %+v", b)
	}
	for _, tk := range b.Tokens[:cap(b.Tokens)] {
		if tk != nil {
			c.t.Errorf("recycled record pins the token of r%d", tk.R)
		}
	}
	for _, s := range b.Missing[:cap(b.Missing)] {
		if s.Universe() != 0 {
			c.t.Errorf("recycled record keeps the missing set %v", s)
		}
	}
}

// TestHazardRecycledRecordScrubbed: a record back in the pool may sit
// there for long, so every record every site is delivered is checked
// once its activation is over (scrubCheck).
func TestHazardRecycledRecordScrubbed(t *testing.T) {
	const n, m = 4, 8
	var nodes []*scrubCheck
	f := worldOf(func(n, m int) []alg.Node {
		built := NewFactory(WithLoan())(n, m)
		for i, a := range built {
			c := &scrubCheck{Node: a.(*Node), t: t}
			nodes, built[i] = append(nodes, c), c
		}
		return built
	}, n, m)
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
	var asks, records, loans, tokens int
	for id, nd := range f.nodes {
		asks += nd.Counters().LoanAsks
		records, loans, tokens = records+nodes[id].records, loans+nodes[id].loans, tokens+nodes[id].tokens
		if len(nd.out.miss) != 0 {
			t.Errorf("node %d: outbox keeps %d missing sets between activations", id, len(nd.out.miss))
		}
		for _, s := range nd.out.miss[:cap(nd.out.miss)] {
			if s.Universe() != 0 {
				t.Errorf("node %d: flushed outbox keeps the missing set %v", id, s)
			}
		}
	}
	if asks == 0 || records == 0 || loans == 0 || tokens == 0 {
		t.Fatalf("scenario exercised nothing: %d loan asks, %d records delivered, %d with a missing set, %d with a token", asks, records, loans, tokens)
	}
}

// checked is a core node whose Env checks every LASS record it sends
// against the sender's state. The rule: a record carries every holding
// its sender's log gained since the last record of either kind to its
// destination — the tokens the sender holds first, by resource, then
// the ring's entries — except those naming the destination, and no
// holding the destination was sent before. Under DisableShortcut the
// log is empty, so every record carries none. The nodes of one factory
// call share one table of the records they were delivered and how many
// holdings each carried: a pooled record is refilled by whichever node
// takes it, so reuse is counted by record, at the node that sends it
// next. The nodes of one call must run on one goroutine.
type checked struct {
	*Node
	t         *testing.T
	delivered map[*batch]int     // record → the holdings it last arrived with, at any node of the call
	last      [][]holding        // per site: the log when a record last went to it
	told      []map[holding]bool // per site: every holding sent to it
	reused    int                // records this node sent again after a delivery
	shrunk    int                // ... carrying fewer holdings than they arrived with
	refilled  int                // ... that had arrived with holdings
	carried   int                // records sent with a token their sender holds
	sent      int                // records sent
}

type checkedEnv struct {
	alg.Env
	c *checked
}

// checkedFactory builds checked nodes with relay rings of ring entries
// into *into.
func checkedFactory(t *testing.T, opt Options, ring int, into *[]*checked) alg.Factory {
	return func(n, m int) []alg.Node {
		nodes := make([]alg.Node, n)
		*into = make([]*checked, n)
		delivered := map[*batch]int{}
		for i, a := range withRing(opt, ring)(n, m) {
			c := &checked{Node: a.(*Node), t: t, delivered: delivered, last: make([][]holding, n), told: make([]map[holding]bool, n)}
			for j := range c.told {
				c.told[j] = map[holding]bool{}
			}
			(*into)[i], nodes[i] = c, c
		}
		return nodes
	}
}

func (c *checked) Attach(env alg.Env) { c.Node.Attach(&checkedEnv{env, c}) }

func (c *checked) Deliver(from network.NodeID, m network.Message) {
	if b := asBatch(m); b != nil {
		c.delivered[b] = len(b.Holdings)
	}
	c.Node.Deliver(from, m)
}

func (e *checkedEnv) Send(to network.NodeID, m network.Message) {
	c, self := e.c, e.ID()
	if b := asBatch(m); b != nil {
		// The log as the node's state has it: the tokens it holds,
		// less the genesis holdings every site knows, then its ring.
		var log, want []holding
		c.sent++
		for r, t := range c.tok {
			if t != nil && t.version() != (tokVer{}) && !c.opt.DisableShortcut {
				log = append(log, holding{resource.ID(r), self, t.version()})
			}
		}
		for _, l := range c.log.ring {
			log = append(log, l.holding)
		}
		for _, h := range log {
			if h.H != to && !slices.Contains(c.last[to], h) {
				want = append(want, h)
			}
		}
		if !slices.Equal(b.Holdings, want) {
			c.t.Errorf("s%d sends %s to s%d with holdings %v, want %v", self, m.Kind(), to, b.Holdings, want)
		}
		for _, h := range b.Holdings {
			if c.told[to][h] {
				c.t.Errorf("s%d sends %s to s%d with %v, which it was sent before", self, m.Kind(), to, h)
			}
			c.told[to][h] = true
		}
		c.last[to] = log
		if len(b.Holdings) > 0 && b.Holdings[0].H == self {
			c.carried++
		}
		if had, ok := c.delivered[b]; ok {
			c.reused++
			if had > len(b.Holdings) {
				c.shrunk++
			}
			if had > 0 {
				c.refilled++
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
// its sender's holdings; refilled for a message of the node's own, it
// must carry the node's news and nothing of the previous message's — a
// stale holding would aim a receiver's father pointer at a site that
// never held the token at that version. Every record every site sends
// is checked against the site's tokens and ring at that moment (see
// checked).
// Three drivers: loan rounds and plain cycles in which sites hold
// different numbers of tokens; random requests on eight sites, a ring
// of two; and a live cluster over Reliable whose chaos fabric drops and
// duplicates records, so retransmitted envelopes point at records
// their receiver has refilled.
func TestHazardRecycledRecordHints(t *testing.T) {
	sum := func(nodes []*checked, count func(*checked) int) (k int) {
		for _, c := range nodes {
			k += count(c)
		}
		return k
	}
	refilled := func(c *checked) int { return c.refilled }
	t.Run("cycles", func(t *testing.T) {
		const n, m = 4, 8
		var nodes []*checked
		f := worldOf(checkedFactory(t, WithLoan(), 1, &nodes), n, m)
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
		shrunk := sum(nodes, func(c *checked) int { return c.shrunk })
		if carried := sum(nodes, func(c *checked) int { return c.carried }); shrunk == 0 || carried == 0 {
			t.Fatalf("no site refilled a record it was sent with fewer holdings than it arrived with (%d reused, %d sent with its own)",
				sum(nodes, func(c *checked) int { return c.reused }), carried)
		}
	})
	t.Run("random", func(t *testing.T) {
		const n, m = 8, 8
		var nodes []*checked
		f := worldOf(checkedFactory(t, WithLoan(), 2, &nodes), n, m)
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 40; round++ {
			asked := rng.Perm(n)[:3]
			for _, s := range asked {
				f.Request(s, resource.Sample(rng, m, 1+rng.Intn(3)))
			}
			f.Drain(nil)
			for len(asked) > 0 {
				waiting := asked[:0]
				for _, s := range asked {
					if f.InCS(s) {
						f.release(s)
					} else {
						waiting = append(waiting, s)
					}
				}
				if len(waiting) == len(asked) {
					t.Fatalf("round %d: sites %v wait and none is granted", round, waiting)
				}
				asked = waiting
			}
		}
		if sum(nodes, refilled) == 0 {
			t.Fatal("no site sent again a record it was delivered with holdings")
		}
	})
	t.Run("reliable", func(t *testing.T) {
		const n, m = 4, 8
		ch := transport.NewChaos(transport.NewMem(n, 0), 0xfee1)
		rel := transport.NewReliable(ch)
		rel.SetRetransmit(time.Millisecond, 20*time.Millisecond)
		var nodes []*checked
		c, err := live.New(live.Config{Nodes: n, Resources: m, Transport: rel}, checkedFactory(t, WithLoan(), 1, &nodes))
		if err != nil {
			t.Fatal(err)
		}
		ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond}})
		var wg sync.WaitGroup
		for node := 0; node < n; node++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(node) + 7))
				for i := 0; i < 40; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					var rs []int
					for _, r := range resource.Sample(rng, m, 1+rng.Intn(4)).Members() {
						rs = append(rs, int(r))
					}
					release, err := c.Acquire(ctx, node, rs...)
					cancel()
					if err != nil {
						t.Errorf("node %d: %v", node, err)
						return
					}
					release()
				}
			}()
		}
		wg.Wait()
		ch.StopFaults()
		c.Close()
		if cs, rs := ch.ChaosStats(), rel.RelStats(); cs.Duplicated == 0 || rs.Retransmits == 0 {
			t.Fatalf("no record was put back on the fabric: chaos %+v, recovery %+v", cs, rs)
		}
		if sum(nodes, refilled) == 0 {
			t.Fatal("no site sent again a record it was delivered with holdings")
		}
	})
}

// shardTagged is a core node that notes, in a table its cluster's
// shards share, which shard each record it is delivered went to, and
// counts the records its shard sends that were last delivered on
// another: records that went through the one pool from one shard's
// runner to another's. It reads no record, only compares pointers.
type shardTagged struct {
	*Node
	shard int
	seen  *shardSeen
}

type shardSeen struct {
	mu      sync.Mutex
	at      map[*batch]int // record → the shard it was last delivered on
	crossed int
}

type shardTaggedEnv struct {
	alg.Env
	s shardTagged
}

func (s shardTagged) Attach(env alg.Env) { s.Node.Attach(shardTaggedEnv{env, s}) }

func (s shardTagged) Deliver(from network.NodeID, m network.Message) {
	if b := asBatch(m); b != nil {
		s.seen.mu.Lock()
		s.seen.at[b] = s.shard
		s.seen.mu.Unlock()
	}
	s.Node.Deliver(from, m)
}

func (e shardTaggedEnv) Send(to network.NodeID, m network.Message) {
	if b := asBatch(m); b != nil {
		seen := e.s.seen
		seen.mu.Lock()
		if at, ok := seen.at[b]; ok && at != e.s.shard {
			seen.crossed++
		}
		delete(seen.at, b)
		seen.mu.Unlock()
	}
	e.Env.Send(to, m)
}

// TestHazardShardedPool: a sharded live cluster steps each shard's
// nodes from that shard's runner, and every runner recycles into and
// takes from the one record pool. Three shards over a Reliable(Chaos)
// fabric that drops and duplicates records, with sessions of every
// node on every shard at once (and some across shards): under the
// race detector a record one runner recycled and another refilled
// without the pool ordering the two is a reported race, and the run
// must show such records (shardTagged).
func TestHazardShardedPool(t *testing.T) {
	const n, m, g = 4, 12, 3
	ch := transport.NewChaos(transport.NewMem(n, 0), 0xbead)
	rel := transport.NewReliable(ch)
	rel.SetRetransmit(time.Millisecond, 20*time.Millisecond)
	seen := &shardSeen{at: map[*batch]int{}}
	calls := 0 // live calls the factory once per shard, in shard order
	fac := func(n, m int) []alg.Node {
		nodes := NewFactory(WithLoan())(n, m)
		for i, a := range nodes {
			nodes[i] = shardTagged{Node: a.(*Node), shard: calls, seen: seen}
		}
		calls++
		return nodes
	}
	c, err := live.New(live.Config{Nodes: n, Resources: m, Shards: g, Transport: rel}, fac)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond}})
	smap := c.ShardLayout()
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		for shard := 0; shard < g; shard++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(node*g + shard)))
				for i := 0; i < 25; i++ {
					rs := []int{int(smap.Start(shard)) + rng.Intn(smap.Size(shard))}
					if i%5 == 4 { // one in five also takes a resource anywhere
						rs = append(rs, rng.Intn(m))
					}
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					release, err := c.Acquire(ctx, node, rs...)
					cancel()
					if err != nil {
						t.Errorf("node %d, shard %d: %v", node, shard, err)
						return
					}
					release()
				}
			}()
		}
	}
	wg.Wait()
	ch.StopFaults()
	if cs, rs := ch.ChaosStats(), rel.RelStats(); cs.Dropped == 0 || cs.Duplicated == 0 || rs.Retransmits == 0 {
		t.Fatalf("the fabric neither lost nor repeated a record: chaos %+v, recovery %+v", cs, rs)
	}
	if calls != g {
		t.Fatalf("%d factory calls for %d shards", calls, g)
	}
	seen.mu.Lock()
	crossed := seen.crossed
	seen.mu.Unlock()
	if crossed == 0 {
		t.Error("no shard sent a record another shard was delivered: the storm never crossed the pool")
	}
	t.Logf("%d records crossed shards through the pool", crossed)
}

// TestExploreWalkSendsOnlyNews runs the record checker (checked) on one
// seeded walk at the paper's N, with the ring relayCap gives there, so
// every record of 8 000 steps of arbitrary interleaving is held to the
// news rule.
func TestExploreWalkSendsOnlyNews(t *testing.T) {
	sh := explore.WalkShape{Name: "32x80 phi=16", N: 32, M: 80, Phi: 16}
	steps := 8_000
	if testing.Short() {
		steps /= 10
	}
	var nodes []*checked
	res := explore.Walk(checkedFactory(t, WithLoan(), relayCap(sh.N), &nodes), sh, explore.Options{}, 1, steps)
	t.Logf("counter-loan %s seed 1: %v", sh.Name, res)
	if res.Err != nil {
		t.Fatal(res.Err.Cause)
	}
	carried := 0
	for _, c := range nodes {
		carried += c.carried
	}
	if carried == 0 {
		t.Fatal("no record carried a token its sender holds")
	}
}

// TestDisableShortcutSendsNoHoldings runs the record checker on seeded
// walks below 16 sites, where relayCap gives no ring, and at the paper's
// N. With repointing on, records below 16 sites still carry the tokens
// their senders hold; with it off no receiver reads a holding, and no
// record carries one.
func TestDisableShortcutSendsNoHoldings(t *testing.T) {
	off := WithLoan()
	off.DisableShortcut = true
	steps := 4_000
	if testing.Short() {
		steps /= 10
	}
	for _, c := range []struct {
		opt Options
		sh  explore.WalkShape
	}{
		{WithLoan(), explore.WalkShape{Name: "8x32 phi=4", N: 8, M: 32, Phi: 4}},
		{off, explore.WalkShape{Name: "8x32 phi=4", N: 8, M: 32, Phi: 4}},
		{off, explore.WalkShape{Name: "32x80 phi=16", N: 32, M: 80, Phi: 16}},
	} {
		// No ring, as NewFactory gives: none below 16 sites, and none
		// with repointing off.
		var nodes []*checked
		res := explore.Walk(checkedFactory(t, c.opt, 0, &nodes), c.sh, explore.Options{}, 1, steps)
		t.Logf("shortcut off=%v %s seed 1: %v", c.opt.DisableShortcut, c.sh.Name, res)
		if res.Err != nil {
			t.Fatal(res.Err.Cause)
		}
		sent, carried := 0, 0
		for _, n := range nodes {
			sent, carried = sent+n.sent, carried+n.carried
		}
		if sent == 0 || (carried == 0) != c.opt.DisableShortcut {
			t.Errorf("%d records sent, %d with a token their sender holds", sent, carried)
		}
	}
}
