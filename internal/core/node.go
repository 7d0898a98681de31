package core

import (
	"fmt"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// state is the per-process machine state of §4.1 / Figure 2.
type state uint8

const (
	stIdle   state = iota // not requesting
	stWaitS               // waiting for counter values
	stWaitCS              // waiting for the right to access all resources
	stInCS                // in critical section
)

func (s state) String() string {
	switch s {
	case stIdle:
		return "Idle"
	case stWaitS:
		return "waitS"
	case stWaitCS:
		return "waitCS"
	case stInCS:
		return "inCS"
	}
	return "?"
}

// pruneThreshold bounds the per-resource pendingReq history: past it,
// entries provably obsolete under the stale local stamps are dropped.
const pruneThreshold = 128

// pendingCap caps the capacity a history is first given (storePending),
// missCap is the room its list of missing sets starts with.
const (
	pendingCap = 16
	missCap    = 2
)

// tableChunk is how many resources' worth of state one lazily made
// chunk of a per-node table holds (Node.stale, slab): a node pays for
// the resources it has met, an allocation per chunk rather than per
// resource, and nothing at Attach.
const tableChunk = 8

// slab hands out the first storage of per-resource lists and the words
// of loan sets, cut from chunks made when the previous one is used up.
type slab[T any] struct{ rest []T }

// take returns an empty list with room for c entries and no more, so a
// list that outgrows its piece moves to storage of its own instead of
// running into its neighbour's.
func (s *slab[T]) take(c int) []T {
	if len(s.rest) < c {
		s.rest = make([]T, tableChunk*c)
	}
	p := s.rest[:0:c]
	s.rest = s.rest[c:]
	return p
}

// history is the §4.2.1 pendingReq list of one resource. miss holds
// the sets of its reqLoans in request order, like batch.Missing.
type history struct {
	reqs []request
	miss []resource.Set
}

// add appends r and, when r is a reqLoan, its missing set.
func (h *history) add(r *request, miss resource.Set) {
	h.reqs = append(h.reqs, *r)
	if r.Kind == reqLoan {
		h.miss = append(h.miss, miss)
	}
}

// Node is one site of the algorithm. All fields map one-to-one to the
// pseudo-code's local variables (Figure 9). Fields tagged explore:"-"
// are scratch space, slabs and event counts: they do not decide what
// the node does next, so the explorer's state fingerprint skips them.
type Node struct {
	env  alg.Env
	n    int // env.N(), kept for the stale table's indexing
	opt  Options
	mark MarkFunc

	st        state
	tokDir    []network.NodeID // father per resource; None when owner
	ver       []tokVer         // per resource: the holding tokDir names, or the one we hold
	tok       []*token         // the token of every owned resource, nil for the rest
	log       holdings         // what the records tell: tokens held, holdings made or learned
	owned     resource.Set     // TOwned
	required  resource.Set     // TRequired
	cntNeeded resource.Set     // CntNeeded
	lent      resource.Set     // TLent
	myVector  []int64          // MyVector
	scratch   []int64          `explore:"-"` // scratch vector for single-entry marks
	myMark    float64          // A(MyVector), cached entering waitCS
	curID     int64            // curId
	loanAsked bool
	single    bool // current request took the §4.6.1 fast path

	pending []history // pendingReq, per resource
	out     outbox    `explore:"-"`
	stats   Counters  `explore:"-"`

	// stale holds what this node remembers of the tokens it no longer
	// owns, for the §4.2.1 staleness test of a forwarded request and
	// for regeneration: per resource the LastReqC and LastCS vectors
	// and the counter, as they were when the token last left (stamps
	// only grow, so judging by them is conservative). Chunk r/tableChunk
	// holds resource r (staleStamps) and is nil until the token of one
	// of its resources has left; all-zero stamps call nothing obsolete
	// and a zero counter says no token of r has been here.
	stale [][]int64
	// The histories' first storage (storePending), and the words of
	// the missing sets this node's loan rounds ask with (maybeAskLoan).
	reqSlab  slab[request]      `explore:"-"`
	setSlab  slab[resource.Set] `explore:"-"`
	loanSlab slab[uint64]       `explore:"-"`

	// Lease machinery (lease.go), live when opt.LeaseTTL > 0.
	leaseUntil      []sim.Time       // per owned resource: lease end on our clock
	leaseLapsed     []bool           // edge detector for LeaseExpiries
	stewardDeadline []sim.Time       // per stewarded resource: regen at this silence
	curEpoch        []int64          // highest token epoch witnessed per resource
	regenOwner      []network.NodeID // who owns the current epoch's regenerated token
	nextHB          sim.Time
	leaseInit       bool
	entryHeld       bool          // a CS entry parked on a lapsed lease (maybeEnter)
	newOwned        []resource.ID `explore:"-"` // tokens installed this activation, awaiting a heartbeat

	// Reusable hot-path scratch. ids snapshots a set for iteration in
	// Release/scanQueues/processLoanQueues/Tick/Drain (never nested with
	// each other); lendIDs is canLend's own snapshot, which IS reached
	// from inside a processLoanQueues iteration; bounceIDs is onTokens'
	// failed-loan scan, which calls sendToken while it iterates and
	// runs before scanQueues and processLoanQueues take ids in the same
	// activation — its own slice, so it nests with nothing. loans is
	// processLoanQueues' copy of a token's loan queue. miss holds
	// maybeAskLoan's missing-set computation.
	ids       []resource.ID `explore:"-"`
	lendIDs   []resource.ID `explore:"-"`
	bounceIDs []resource.ID `explore:"-"`
	loans     []loanEntry   `explore:"-"`
	miss      resource.Set  `explore:"-"`
}

// Counters exposes protocol-internal event counts that never cross the
// wire — how often the loan machinery and the optimizations actually
// fired. Tests and the ablation experiments read them.
type Counters struct {
	LoanAsks     int // ReqLoan initiations (pseudo line 249)
	LoansGranted int // successful canLend decisions
	LoanReturns  int // borrowed tokens bounced back (failed loans)
	Yields       int // tokens yielded to a higher-priority request
	SingleFast   int // requests served through the §4.6.1 fast path

	// Lease and recovery events (lease.go).
	Heartbeats    int // LASS.HB messages sent
	LeaseGrants   int // LASS.Lease echoes sent (steward side)
	LeaseExpiries int // owned leases that lapsed before renewal
	Regens        int // tokens regenerated by this steward
	Fenced        int // stale-epoch tokens or ownerships fenced
	Drained       int // tokens handed off by an orderly Drain
}

// String renders the counters as one summary row — the format the
// daemon's shutdown report uses per shard and for the aggregate line.
func (c Counters) String() string {
	return fmt.Sprintf(
		"loans asked=%d granted=%d returned=%d yields=%d fast=%d hb=%d lease-grants=%d expiries=%d regens=%d fenced=%d drained=%d",
		c.LoanAsks, c.LoansGranted, c.LoanReturns, c.Yields, c.SingleFast,
		c.Heartbeats, c.LeaseGrants, c.LeaseExpiries, c.Regens, c.Fenced, c.Drained)
}

// Add accumulates other into c, for cluster-wide summaries.
func (c *Counters) Add(other Counters) {
	c.LoanAsks += other.LoanAsks
	c.LoansGranted += other.LoansGranted
	c.LoanReturns += other.LoanReturns
	c.Yields += other.Yields
	c.SingleFast += other.SingleFast
	c.Heartbeats += other.Heartbeats
	c.LeaseGrants += other.LeaseGrants
	c.LeaseExpiries += other.LeaseExpiries
	c.Regens += other.Regens
	c.Fenced += other.Fenced
	c.Drained += other.Drained
}

// Counters returns a snapshot of the node's internal event counts.
func (nd *Node) Counters() Counters { return nd.stats }

// NewFactory builds the factory for driver.Run: n sites over m
// resources, site 0 initially owning every token ("elected node").
func NewFactory(opt Options) alg.Factory {
	return func(n, m int) []alg.Node {
		c := relayCap(n)
		if opt.DisableShortcut {
			c = 0
		}
		nodes := make([]alg.Node, n)
		for i := range nodes {
			nodes[i] = &Node{opt: opt, mark: opt.mark(), log: newHoldings(n, m, c)}
		}
		return nodes
	}
}

// Attach implements alg.Node (pseudo-code Initialization).
func (nd *Node) Attach(env alg.Env) {
	nd.env = env
	n, m := env.N(), env.M()
	nd.n = n
	nd.tokDir = make([]network.NodeID, m)
	nd.ver = make([]tokVer, m)
	nd.tok = make([]*token, m)
	nd.owned = resource.NewSet(m)
	nd.required = resource.NewSet(m)
	nd.cntNeeded = resource.NewSet(m)
	nd.lent = resource.NewSet(m)
	nd.myVector = make([]int64, m)
	nd.scratch = make([]int64, m)
	nd.pending = make([]history, m)
	nd.stale = make([][]int64, (m+tableChunk-1)/tableChunk)
	nd.miss = resource.NewSet(m)
	nd.leaseUntil = make([]sim.Time, m)
	nd.leaseLapsed = make([]bool, m)
	nd.stewardDeadline = make([]sim.Time, m)
	nd.curEpoch = make([]int64, m)
	nd.regenOwner = make([]network.NodeID, m)
	for r := range nd.regenOwner {
		nd.regenOwner[r] = network.None
	}
	const elected network.NodeID = 0
	for r := 0; r < m; r++ {
		if env.ID() == elected {
			nd.tokDir[r] = network.None
			nd.tok[r] = newToken(resource.ID(r), n)
			nd.owned.Add(resource.ID(r))
		} else {
			nd.tokDir[r] = elected
		}
	}
}

func (nd *Node) self() network.NodeID { return nd.env.ID() }

func (nd *Node) myRef() reqRef {
	return reqRef{Site: nd.self(), ID: nd.curID, Mark: nd.myMark}
}

// markSingle applies A to a vector whose only non-zero entry is val at
// position r — what the root computes in the §4.6.1 fast path.
func (nd *Node) markSingle(r resource.ID, val int64) float64 {
	nd.scratch[r] = val
	m := nd.mark(nd.scratch)
	nd.scratch[r] = 0
	return m
}

// staleStamps returns the stale record of r — LastReqC in [0, N),
// LastCS in [N, 2N), the counter at 2N — or nil when no token of r's
// chunk has left this node yet.
func (nd *Node) staleStamps(r resource.ID) []int64 {
	c := nd.stale[int(r)/tableChunk]
	if c == nil {
		return nil
	}
	w := 2*nd.n + 1
	return c[int(r)%tableChunk*w:][:w]
}

// keepStale records t's stamps and counter as the token leaves.
func (nd *Node) keepStale(t *token) {
	n := nd.n
	if c := &nd.stale[int(t.R)/tableChunk]; *c == nil {
		*c = make([]int64, tableChunk*(2*n+1))
	}
	st := nd.staleStamps(t.R)
	copy(st[:n], t.LastReqC)
	copy(st[n:2*n], t.LastCS)
	st[2*n] = t.Counter
}

// staleObsolete is the §4.2.1 staleness test of a site that does not
// own req.R's token, against the stamps it kept (token.obsolete is the
// owner's).
func (nd *Node) staleObsolete(req *request) bool {
	st := nd.staleStamps(req.R)
	return st != nil && obsolete(req, st[:nd.n], st[nd.n:])
}

// flush ends an activation, transmitting buffered messages. visited is
// the visited-sites set (§4.2.1) of the batch this activation forwards
// requests from, nil when the node originates them; request batches
// leave stamped with it plus this site.
func (nd *Node) flush(visited []network.NodeID) {
	nd.out.flush(nd.env, visited, &nd.log, !nd.opt.DisableAggregation)
}

func (nd *Node) flushOwn() { nd.flush(nil) }

// own makes t this node's: t is in tok and in the log's held entries,
// and ver names its holding. A genesis holding, version (0, 0), is left
// out of the log: every site knows it already, so it is no hint. Under
// DisableShortcut the log keeps none and its ring is empty too
// (NewFactory), so news sends nothing and no onHoldings repoints.
func (nd *Node) own(t *token) {
	r := t.R
	nd.tok[r] = t
	nd.owned.Add(r)
	nd.tokDir[r] = network.None
	nd.ver[r] = t.version()
	if nd.ver[r] != (tokVer{}) && !nd.opt.DisableShortcut {
		nd.log.hold(holding{r, nd.self(), nd.ver[r]})
	}
}

// disown ends this node's ownership of r and returns the token: its
// stamps stay behind in the stale table, the token itself is no longer
// reachable from the node.
func (nd *Node) disown(r resource.ID) *token {
	t := nd.tok[r]
	nd.keepStale(t)
	nd.tok[r] = nil
	nd.owned.Remove(r)
	nd.log.drop(r)
	return t
}

// sendToken transfers ownership of r's token to another site: the
// token rides the wire at its next version, its stamps stay behind for
// obsolescence pruning, and the father pointer follows the token.
func (nd *Node) sendToken(to network.NodeID, r resource.ID) {
	if to == nd.self() {
		panic(fmt.Sprintf("core: s%d sending token %d to itself", nd.self(), r))
	}
	t := nd.disown(r)
	t.Ver++
	nd.tokDir[r] = to
	nd.ver[r] = t.version()
	nd.log.put(holding{r, to, nd.ver[r]})
	if nd.leasing() && nd.steward(r) == nd.self() {
		// Our own steward duty resumes the moment the token leaves:
		// the new holder gets a full silence window before regeneration.
		nd.stewardDeadline[r] = nd.env.Now() + 4*nd.opt.LeaseTTL
	}
	nd.out.token(to, t)
	// The token is sent first, then any re-issued claim of our own: the
	// new owner installs it before seeing our request.
	nd.reclaimParked(r)
}

// Request implements alg.Node (pseudo-code Request_CS).
func (nd *Node) Request(rs resource.Set) {
	if nd.st != stIdle {
		panic(fmt.Sprintf("core: s%d requested in state %v", nd.self(), nd.st))
	}
	nd.curID++
	nd.required.CopyFrom(rs)
	nd.loanAsked = false
	nd.single = false
	nd.entryHeld = false

	// §4.6.1: a single-resource request skips the counter round-trip;
	// the root applies A itself and treats the ReqCnt as a ReqRes.
	if !nd.opt.DisableSingleResOpt && rs.Len() == 1 {
		nd.stats.SingleFast++
		r := rs.Min()
		if nd.owned.Has(r) {
			t := nd.tok[r]
			nd.myVector[r] = t.Counter
			t.LastReqC[nd.self()] = nd.curID
			// The mark must be current before a lease-parked entry: a
			// competing request may be judged against myRef meanwhile.
			nd.myMark = nd.markSingle(r, t.Counter)
			t.Counter++
			nd.maybeEnter()
			return
		}
		nd.single = true
		nd.st = stWaitCS
		nd.cntNeeded.Add(r) // the arriving token will assign our counter
		nd.ask(&request{Kind: reqCnt, R: r, Init: nd.self(), ID: nd.curID, Single: true})
		nd.flushOwn()
		return
	}

	nd.st = stWaitS
	missingCnt := false
	nd.required.ForEach(func(r resource.ID) {
		if nd.owned.Has(r) {
			t := nd.tok[r]
			nd.myVector[r] = t.Counter
			t.Counter++
		} else {
			missingCnt = true
			nd.cntNeeded.Add(r)
			nd.ask(&request{Kind: reqCnt, R: r, Init: nd.self(), ID: nd.curID})
		}
	})
	nd.flushOwn()
	if !missingCnt {
		// Every counter was local, which means every token is: enter.
		nd.myMark = nd.mark(nd.myVector)
		nd.maybeEnter()
	}
}

func (nd *Node) enterCS() {
	if !nd.required.SubsetOf(nd.owned) {
		panic(fmt.Sprintf("core: s%d entering CS while missing %v", nd.self(), nd.required.Diff(nd.owned)))
	}
	nd.st = stInCS
	nd.env.Granted()
}

// processCntNeededEmpty is the waitS → waitCS transition: all counter
// values are known, so compute A and ask for every missing token.
func (nd *Node) processCntNeededEmpty() {
	nd.st = stWaitCS
	nd.myMark = nd.mark(nd.myVector)
	sent := false
	nd.required.ForEach(func(r resource.ID) {
		if !nd.owned.Has(r) {
			sent = true
			nd.ask(&request{Kind: reqRes, R: r, Init: nd.self(), ID: nd.curID, Mark: nd.myMark})
		}
	})
	if !sent {
		// Defensive: every token arrived while we were still in waitS.
		nd.maybeEnter()
	}
}

// Release implements alg.Node (pseudo-code Release_CS).
func (nd *Node) Release() {
	if nd.st != stInCS {
		panic(fmt.Sprintf("core: s%d released in state %v", nd.self(), nd.st))
	}
	nd.st = stIdle
	nd.loanAsked = false
	nd.single = false
	nd.entryHeld = false
	nd.ids = nd.required.AppendMembers(room(nd.ids))
	for _, r := range nd.ids {
		if !nd.owned.Has(r) {
			continue // fenced away mid-CS by an epoch regeneration
		}
		t := nd.tok[r]
		t.LastCS[nd.self()] = nd.curID
		if t.Lender != network.None && t.Lender != nd.self() {
			// Borrowed: return straight to the lender, dropping any
			// stale queue entry of the lender itself (it owns the
			// token again the moment it arrives).
			lender := t.Lender
			t.Lender = network.None
			t.Queue.RemoveSite(lender)
			nd.sendToken(lender, r)
			continue
		}
		if head, ok := t.Queue.Head(); ok {
			if head.Site == nd.self() {
				panic(fmt.Sprintf("core: s%d is head of its own queue for %d", nd.self(), r))
			}
			t.Queue.PopHead()
			nd.sendToken(head.Site, r)
		}
	}
	nd.required.Clear()
	for i := range nd.myVector {
		nd.myVector[i] = 0
	}
	nd.flushOwn()
}

// Deliver implements alg.Node, dispatching the three receive handlers
// of Figure 12. A delivered batch record is this node's to keep: it is
// recycled once the activation's flush has returned, not before — the
// forwarded batches copy the record's visited set inside flush.
func (nd *Node) Deliver(from network.NodeID, m network.Message) {
	switch msg := m.(type) {
	case *reqBatch:
		nd.onHoldings(msg.Holdings)
		nd.onRequests(msg)
		nd.flush(msg.Visited)
		recycle((*batch)(msg))
	case *respBatch:
		nd.onHoldings(msg.Holdings)
		nd.onCounters(msg.Counters)
		if len(msg.Tokens) > 0 {
			nd.onTokens(msg.Tokens)
		} else if nd.st == stWaitS && nd.cntNeeded.Empty() {
			nd.processCntNeededEmpty()
		}
		nd.flushOwn()
		recycle((*batch)(msg))
	case hbMsg:
		nd.onHeartbeat(from, msg)
	case leaseMsg:
		nd.onLease(msg)
	case regenMsg:
		nd.onRegen(msg)
		nd.flushOwn()
	default:
		panic(fmt.Sprintf("core: unexpected message %T", m))
	}
}

// onHoldings applies a record's holdings by deviation 6's rule: a
// token this node does not own is repointed at the named holder when
// the holding is later than the one the pointer names, unless it names
// this node — whose token is then on its way here. It runs before the
// record's requests are routed or its counters and tokens taken; a
// pointer it moves goes in the ring.
func (nd *Node) onHoldings(hs []holding) {
	self := nd.self()
	for _, h := range hs {
		if h.H != self && nd.tok[h.R] == nil && h.V.newer(nd.ver[h.R]) {
			nd.tokDir[h.R], nd.ver[h.R] = h.H, h.V
			nd.log.put(h)
		}
	}
}

// onRequests implements "Receive Request" (pseudo lines 159-189).
func (nd *Node) onRequests(batch *reqBatch) {
	sets := loanSets(batch.Missing)
	for i := range batch.Reqs {
		req := &batch.Reqs[i]
		miss := sets.next(req)
		r := req.R
		if t := nd.tok[r]; t != nil {
			if !t.obsolete(req) {
				nd.handleOwnedRequest(req, miss)
			}
			continue
		}
		if nd.staleObsolete(req) {
			continue
		}
		// Not the owner: record in the local history, then forward
		// unless an optimization or the visited set stops us.
		nd.storePending(req, miss)
		if nd.forwardStop(req) {
			continue
		}
		if visitedContains(batch.Visited, nd.tokDir[r]) {
			continue // §4.2.1: the token is heading to a visited site
		}
		nd.out.request(nd.tokDir[r], req, miss)
	}
}

// ask sends a request of this node's own toward the token of req.R.
func (nd *Node) ask(req *request) {
	nd.out.request(nd.tokDir[req.R], req, resource.Set{})
}

// forwardStop is optimization §4.6.2: stop forwarding a ReqRes when we
// know we will receive the token before the requester — either our own
// pending request for r has priority, or we lent the token and it must
// come back. The stored pendingReq copy is replayed on token arrival.
func (nd *Node) forwardStop(req *request) bool {
	if nd.opt.DisableForwardStop || req.Kind != reqRes {
		return false
	}
	if nd.lent.Has(req.R) {
		return true
	}
	return !nd.single && nd.st == stWaitCS && nd.required.Has(req.R) &&
		nd.myRef().precedes(req.ref())
}

// storePending appends to the §4.2.1 local history of req.R,
// deduplicating and pruning provably obsolete entries when the history
// grows. miss is the missing set of a reqLoan.
func (nd *Node) storePending(req *request, miss resource.Set) {
	h := &nd.pending[req.R]
	for i := range h.reqs {
		if x := &h.reqs[i]; x.Kind == req.Kind && x.Init == req.Init && x.ID == req.ID {
			return
		}
	}
	if cap(h.reqs) == 0 {
		// Sized once: a history holds about one live entry per site,
		// and replayPending truncates it instead of dropping it. The
		// first storage is a capped piece of the node's slab, so a
		// history that outgrows it moves to storage of its own.
		h.reqs = nd.reqSlab.take(min(nd.n, pendingCap))
	}
	if req.Kind == reqLoan && cap(h.miss) == 0 {
		h.miss = nd.setSlab.take(missCap)
	}
	if len(h.reqs) >= pruneThreshold {
		reqs, sets := h.reqs, loanSets(h.miss)
		h.reqs, h.miss = reqs[:0], h.miss[:0]
		for i := range reqs {
			if m := sets.next(&reqs[i]); !nd.staleObsolete(&reqs[i]) {
				h.add(&reqs[i], m)
			}
		}
	}
	h.add(req, miss)
}

// handleOwnedRequest decides a live request at the token owner
// (pseudo lines 167-184); miss is the missing set of a reqLoan.
func (nd *Node) handleOwnedRequest(req *request, miss resource.Set) {
	r := req.R
	t := nd.tok[r]
	isCnt := req.Kind == reqCnt && !req.Single

	switch {
	case req.Kind == reqLoan:
		nd.processReqLoan(req, miss)

	case !nd.required.Has(r) || (nd.st == stWaitS && !isCnt):
		// Not competing for r (or still collecting counters and the
		// request wants the token): hand the token over directly.
		nd.sendToken(req.Init, r)

	case isCnt:
		// Competing for r but counters are cheap: answer and keep.
		t.LastReqC[req.Init] = req.ID
		nd.out.counter(req.Init, counterVal{R: r, Val: t.Counter, ID: req.ID})
		t.Counter++

	default:
		// A ReqRes (or a single fast-path ReqCnt converted here) while
		// we compete for r in waitCS or inCS.
		e := req.ref()
		if req.Single {
			t.LastReqC[req.Init] = req.ID
			e.Mark = nd.markSingle(r, t.Counter)
			t.Counter++
		}
		if t.Queue.contains(e.Site, e.ID) {
			return
		}
		if nd.st == stWaitCS && e.precedes(nd.myRef()) {
			// The newcomer outranks us: queue ourselves, yield.
			nd.stats.Yields++
			t.Queue.Insert(nd.myRef())
			nd.sendToken(e.Site, r)
		} else {
			t.Queue.Insert(e)
		}
	}
}

// contains reports queue membership by (Site, ID).
func (q wqueue) contains(s network.NodeID, id int64) bool {
	for _, x := range q {
		if x.Site == s && x.ID == id {
			return true
		}
	}
	return false
}

// canLend evaluates the five lending conditions of §4.5 (pseudo lines
// 117-132) for a loan of miss.
func (nd *Node) canLend(req *request, miss resource.Set) bool {
	if !miss.SubsetOf(nd.owned) {
		return false
	}
	nd.lendIDs = nd.owned.AppendMembers(room(nd.lendIDs))
	for _, r := range nd.lendIDs {
		if nd.tok[r].Lender != network.None {
			return false // we hold borrowed tokens ourselves
		}
	}
	if !nd.lent.Empty() || nd.st == stInCS {
		return false
	}
	if nd.st == stWaitCS {
		return !nd.loanAsked || req.ref().precedes(nd.myRef())
	}
	return true
}

// processReqLoan decides a loan request for miss at the token owner
// (pseudo lines 190-207).
func (nd *Node) processReqLoan(req *request, miss resource.Set) {
	if req.Init == nd.self() || nd.tok[req.R].obsolete(req) {
		// Own loan requests are moot once the token is here.
		return
	}
	if nd.canLend(req, miss) {
		nd.stats.LoansGranted++
		nd.lent.CopyFrom(miss)
		self := nd.self()
		miss.ForEach(func(r resource.ID) {
			t := nd.tok[r]
			t.Lender = self
			// The borrower is served through the loan: its queued
			// ReqRes entries and duplicate loan entries go away.
			t.Queue.RemoveSite(req.Init)
			t.removeLoans(req.Init)
			nd.sendToken(req.Init, r)
		})
		return
	}
	if !nd.required.Has(req.R) || nd.st == stWaitS {
		nd.sendToken(req.Init, req.R)
		return
	}
	t := nd.tok[req.R]
	if !t.hasLoan(req.ref(), req.R) {
		t.Loans = append(room(t.Loans), loanEntry{Ref: req.ref(), R: req.R, Missing: miss})
	}
}

// onCounters implements "Receive Counter" (pseudo lines 255-262); the
// caller handles the CntNeeded-empty transition. The §4.6.2 shortcut —
// the replier held the token — is the hint for it the reply's record
// carries (onHoldings).
func (nd *Node) onCounters(cnts []counterVal) {
	for _, c := range cnts {
		if c.ID != nd.curID || !nd.cntNeeded.Has(c.R) {
			continue // stale reply (hardening deviation 1)
		}
		nd.myVector[c.R] = c.Val
		nd.cntNeeded.Remove(c.R)
	}
}

// onTokens implements "Receive Token" (pseudo lines 208-254).
func (nd *Node) onTokens(toks []*token) {
	for _, t := range toks {
		nd.processUpdate(t)
	}
	if nd.leasing() && len(nd.newOwned) > 0 {
		// Heartbeat new holdings immediately — the CS-entry gate waits
		// on the grant echoes, so renewal latency is entry latency.
		nd.sendHeartbeats(nd.env.Now(), nd.newOwned)
		nd.newOwned = nd.newOwned[:0]
	}

	waiting := nd.st == stWaitS || nd.st == stWaitCS
	if waiting && nd.required.SubsetOf(nd.owned) {
		nd.maybeEnter()
	} else if waiting {
		// Any borrowed token we cannot use right now means the loan
		// failed (we yielded other tokens in the meantime): bounce the
		// borrowed tokens straight back to the lender and restore our
		// queue position (hardening deviation 4).
		returned := false
		nd.bounceIDs = nd.owned.AppendMembers(room(nd.bounceIDs))
		for _, r := range nd.bounceIDs {
			t := nd.tok[r]
			if t.Lender == network.None || t.Lender == nd.self() {
				continue
			}
			lender := t.Lender
			nd.sendToken(lender, r)
			nd.stats.LoanReturns++
			returned = true
			if nd.st == stWaitCS && nd.required.Has(r) {
				nd.ask(&request{Kind: reqRes, R: r, Init: nd.self(), ID: nd.curID, Mark: nd.myMark})
			}
		}
		if returned {
			nd.loanAsked = false
		}
	}

	if nd.st == stWaitS && nd.cntNeeded.Empty() {
		nd.processCntNeededEmpty()
	}
	nd.scanQueues()
	nd.processLoanQueues()
	nd.maybeAskLoan()
}

// processUpdate installs an arriving token and replays the local
// history for its resource (pseudo lines 133-158).
func (nd *Node) processUpdate(t *token) {
	r := t.R
	if t.Epoch < nd.curEpoch[r] {
		// A copy of the token from a dead epoch resurfaced (a stale
		// holder flushing, a regeneration racing the original): fence it.
		nd.stats.Fenced++
		return
	}
	nd.curEpoch[r] = t.Epoch
	self := nd.self()
	if t.Lender == self {
		t.Lender = network.None // returned home (hardening deviation 2)
	}
	// Owning the token serves us; stale replayed entries of our own —
	// queued ReqRes or a ReqLoan from a failed loan round — must not
	// survive into our own token, or a later processLoanQueues could
	// try to lend the token to ourselves (hardening deviation 5, doc.go).
	t.Queue.RemoveSite(self)
	t.removeLoans(self)
	nd.own(t)
	if nd.leasing() {
		// A fresh tenure starts unleased: the echo of the heartbeat
		// sent right after this batch (onTokens) arms it.
		nd.leaseUntil[r] = 0
		nd.leaseLapsed[r] = false
		nd.newOwned = append(nd.newOwned, r)
	}
	if nd.cntNeeded.Has(r) {
		nd.cntNeeded.Remove(r)
		nd.myVector[r] = t.Counter
		t.LastReqC[self] = nd.curID // hardening deviation 1
		t.Counter++
		if nd.single {
			nd.myMark = nd.markSingle(r, nd.myVector[r])
		}
	}
	nd.lent.Remove(r)
	nd.replayPending(t)
}

// replayPending replays the stored local history of t's resource onto
// the (just installed or regenerated) token.
func (nd *Node) replayPending(t *token) {
	r := t.R
	h := &nd.pending[r]
	reqs, sets := h.reqs, loanSets(h.miss)
	// Truncated, not dropped: the history regrows every token tenure.
	// Nothing below stores into it (only onRequests does).
	h.reqs, h.miss = reqs[:0], h.miss[:0]
	for i := range reqs {
		req := &reqs[i]
		miss := sets.next(req)
		if t.obsolete(req) {
			continue
		}
		switch {
		case req.Kind == reqCnt && !req.Single:
			t.LastReqC[req.Init] = req.ID
			nd.out.counter(req.Init, counterVal{R: r, Val: t.Counter, ID: req.ID})
			t.Counter++
		case req.Kind == reqCnt && req.Single:
			t.LastReqC[req.Init] = req.ID
			e := req.ref()
			e.Mark = nd.markSingle(r, t.Counter)
			t.Counter++
			t.Queue.Insert(e)
		case req.Kind == reqRes:
			t.Queue.Insert(req.ref())
		case req.Kind == reqLoan:
			if !t.hasLoan(req.ref(), r) {
				t.Loans = append(room(t.Loans), loanEntry{Ref: req.ref(), R: r, Missing: miss})
			}
		}
	}
}

// scanQueues re-examines the queues of owned tokens after an arrival
// (pseudo lines 226-238): in waitS we never hold a token against its
// queue; in waitCS we yield to higher-priority heads; tokens we do not
// compete for go to their head directly.
func (nd *Node) scanQueues() {
	nd.ids = nd.owned.AppendMembers(room(nd.ids))
	for _, r := range nd.ids {
		t := nd.tok[r]
		head, ok := t.Queue.Head()
		if !ok {
			continue
		}
		switch {
		case !nd.required.Has(r) || nd.st == stWaitS:
			t.Queue.PopHead()
			nd.sendToken(head.Site, r)
		case nd.st == stWaitCS:
			if head.precedes(nd.myRef()) {
				nd.stats.Yields++
				t.Queue.PopHead()
				t.Queue.Insert(nd.myRef())
				nd.sendToken(head.Site, r)
			}
		}
		// inCS and required: keep until Release.
	}
}

// processLoanQueues re-examines pending loans after an arrival (pseudo
// lines 241-247).
func (nd *Node) processLoanQueues() {
	if nd.st == stInCS {
		return
	}
	nd.ids = nd.owned.AppendMembers(room(nd.ids))
	for _, r := range nd.ids {
		t := nd.tok[r]
		if t == nil || len(t.Loans) == 0 {
			continue // nil: lent away earlier in this very scan
		}
		// Walk a copy: every loan re-queued meanwhile goes back into
		// the token's own list, truncated in place, where hasLoan sees
		// only the loans queued since.
		nd.loans = append(nd.loans[:0], t.Loans...)
		t.Loans = t.Loans[:0]
		for _, l := range nd.loans {
			if !nd.owned.Has(l.R) {
				continue // lent away earlier in this very scan
			}
			nd.processReqLoan(&request{
				Kind: reqLoan, R: l.R, Init: l.Ref.Site, ID: l.Ref.ID, Mark: l.Ref.Mark,
			}, l.Missing)
		}
	}
}

// maybeAskLoan initiates a loan request when few enough resources are
// missing (pseudo lines 248-252).
func (nd *Node) maybeAskLoan() {
	if !nd.opt.Loan || nd.st != stWaitCS || nd.loanAsked || nd.single {
		return
	}
	nd.miss.CopyFrom(nd.required)
	nd.miss.DiffWith(nd.owned)
	if nd.miss.Empty() || nd.miss.Len() > nd.opt.threshold() {
		return
	}
	nd.loanAsked = true
	nd.stats.LoanAsks++
	// One copy of the missing set rides every ReqLoan of this round.
	// Receivers store and forward it by reference, so it must be
	// treated as immutable from here on — nothing may mutate a loan's
	// missing set in place, and its piece of the slab is never handed
	// out again.
	missing := nd.miss.CloneInto(nd.loanSlab.take(resource.Words(nd.miss.Universe())))
	nd.miss.ForEach(func(r resource.ID) {
		nd.out.request(nd.tokDir[r], &request{
			Kind: reqLoan, R: r, Init: nd.self(), ID: nd.curID, Mark: nd.myMark,
		}, missing)
	})
}
