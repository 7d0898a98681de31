package core

import (
	"slices"
	"sync"
	"unsafe"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// The wire codecs for the two LASS message kinds. Tokens travel inside
// LASS.Response batches, so the token layout — counter, obsolescence
// stamps, waiting queue, loan queue, lender, epoch, version — is part of
// the Response encoding. Both kinds end with the same list of holdings
// (encHoldings).
// Field order is load-bearing: changing it is a wire break.

func init() {
	wire.Register("LASS.Request", encReqBatch, decReqBatch)
	wire.Register("LASS.Response", encRespBatch, decRespBatch)
	wire.RegisterRelease("LASS.Request", releaseBatch)
	wire.RegisterRelease("LASS.Response", releaseBatch)
	wire.RegisterSamples(codecSamples()...)
}

// The one recycler of records and tokens, process-wide: records go in
// through recycle and come out through pooledBatch, for every flush and
// every decoder; tokens come back only over a socket (releaseBatch),
// and only the decoders take them.
var (
	batchPool = sync.Pool{New: func() any { return newBatch() }}
	tokenPool = sync.Pool{New: func() any { return new(token) }}
)

// releaseBatch takes back a record its socket has encoded: the sender
// gave it away with its tokens (sendToken disowns them), so the tokens
// go to their pool, and the record is recycled.
func releaseBatch(m network.Message) {
	var b *batch
	switch m := m.(type) {
	case *reqBatch:
		b = (*batch)(m)
	case *respBatch:
		b = (*batch)(m)
	}
	for _, t := range b.Tokens {
		if len(t.Loans) > 0 {
			clear(t.Loans)
		}
		tokenPool.Put(t)
	}
	recycle(b)
}

// pooledBatch returns an empty record to fill: a recycled one when the
// pool has any, else a fresh one (newBatch). Whatever went in was
// scrubbed on the way (recycle).
func pooledBatch() *batch { return batchPool.Get().(*batch) }

// recycle scrubs a record its holder is done with and puts it in the
// codec's pool, where the next flush or decode of any node takes it: a
// node after its activation has flushed (a forwarded batch reads the
// delivered record's Visited until then), a socket once it has encoded
// the record (releaseBatch). The scrub rule: nothing another site may
// own stays reachable from a pooled record — its token pointers and
// the missing sets of its loan requests are cleared, over the lists'
// whole capacity; its requests and holdings hold no pointer and are
// only truncated.
func recycle(b *batch) {
	if len(b.Missing) > 0 {
		clear(b.Missing)
	}
	if len(b.Tokens) > 0 {
		clear(b.Tokens)
	}
	// A list that moved to storage of its own left its first entries
	// behind in the record's first storage.
	if cap(b.Missing) > len(b.oneSet) {
		b.oneSet = [len(b.oneSet)]resource.Set{}
	}
	if cap(b.Tokens) > len(b.tokens) {
		b.tokens = [len(b.tokens)]*token{}
	}
	b.Visited, b.Reqs, b.Missing = b.Visited[:0], b.Reqs[:0], b.Missing[:0]
	b.Counters, b.Tokens, b.Holdings = b.Counters[:0], b.Tokens[:0], b.Holdings[:0]
	batchPool.Put(b)
}

func encReqBatch(e *wire.Enc, m network.Message) {
	b := m.(*reqBatch)
	e.Nodes(b.Visited)
	e.Uvarint(uint64(len(b.Reqs)))
	sets := loanSets(b.Missing)
	for i := range b.Reqs {
		r := &b.Reqs[i]
		e.Uvarint(uint64(r.Kind))
		e.Varint(int64(r.R))
		e.Node(r.Init)
		e.Varint(r.ID)
		e.F64(r.Mark)
		// Every request has the set's slot on the wire, empty unless
		// it is a loan: the record keeps the sets on the side, the
		// frame keeps them in place.
		e.Set(sets.next(r))
		e.Bool(r.Single)
	}
	encHoldings(e, b.Holdings)
}

// The decoders fill the record the receiving node keeps (see batch)
// from the pool (pooledBatch): no allocation for a recycled record whose
// lists have room, one for a fresh record of the common case, one more
// per list that outgrows its room, sized to the message at hand.
func decReqBatch(d *wire.Dec) network.Message {
	b := (*reqBatch)(pooledBatch())
	n := d.Count()
	if d.Err() != nil || !d.Charge(8*n) {
		return b
	}
	b.Visited = slices.Grow(b.Visited, n)
	for i := 0; i < n; i++ {
		b.Visited = append(b.Visited, d.Site())
	}
	n = d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(request{}))) {
		return b
	}
	b.Reqs = slices.Grow(b.Reqs, n)
	for i := 0; i < n; i++ {
		var r request
		k := d.Uvarint()
		if k > uint64(reqLoan) {
			d.Fail("request kind %d out of range", k)
			return b
		}
		r.Kind = reqKind(k)
		r.R = d.Res()
		r.Init = d.Site()
		r.ID = d.Varint()
		r.Mark = d.F64()
		miss := d.Set()
		r.Single = d.Bool()
		// A loan request always names its missing set (protocol code
		// runs set algebra on it, which panics on a universe mismatch
		// the zero value would smuggle past shape checks) and no other
		// request has one: the record has a place for a loan's set only.
		if (r.Kind == reqLoan) != (miss.Universe() != 0) && d.Err() == nil {
			d.Fail("%v with a missing set over %d resources", r.Kind, miss.Universe())
		}
		if d.Err() != nil || (r.Kind == reqLoan && !d.Charge(int(unsafe.Sizeof(miss)))) {
			return b
		}
		(*batch)(b).addReq(&r, miss)
	}
	b.Holdings = decHoldings(d, b.Holdings)
	return b
}

func encRespBatch(e *wire.Enc, m network.Message) {
	b := m.(*respBatch)
	e.Uvarint(uint64(len(b.Counters)))
	for _, c := range b.Counters {
		e.Varint(int64(c.R))
		e.Varint(c.Val)
		e.Varint(c.ID)
	}
	e.Uvarint(uint64(len(b.Tokens)))
	for _, t := range b.Tokens {
		encToken(e, t)
	}
	encHoldings(e, b.Holdings)
}

// encHoldings ends a record of either kind: the holdings' count, then
// each as its resource, version and holder.
func encHoldings(e *wire.Enc, hs []holding) {
	e.Uvarint(uint64(len(hs)))
	for _, h := range hs {
		e.Varint(int64(h.R))
		e.Varint(h.V.Epoch)
		e.Varint(h.V.Ver)
		e.Node(h.H)
	}
}

// decHoldings appends encHoldings' list to dst, charged against the
// frame budget like every other list. A holding names a site of the
// cluster at a version that is not negative: anything else would aim a
// father pointer at no holding at all.
func decHoldings(d *wire.Dec, dst []holding) []holding {
	n := d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(holding{}))) {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		h := holding{R: d.Res(), V: tokVer{Epoch: d.Varint(), Ver: d.Varint()}, H: d.Site()}
		if (h.V.Epoch < 0 || h.V.Ver < 0) && d.Err() == nil {
			d.Fail("holding of resource %d at negative version %+v", h.R, h.V)
		}
		if d.Err() != nil {
			return dst
		}
		dst = append(dst, h)
	}
	return dst
}

func decRespBatch(d *wire.Dec) network.Message {
	b := (*respBatch)(pooledBatch())
	n := d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(counterVal{}))) {
		return b
	}
	b.Counters = slices.Grow(b.Counters, n)
	for i := 0; i < n; i++ {
		var c counterVal
		c.R = d.Res()
		c.Val = d.Varint()
		c.ID = d.Varint()
		if d.Err() != nil {
			return b
		}
		b.Counters = append(b.Counters, c)
	}
	n = d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(token{}))) {
		return b
	}
	if st := decDeltaState(d); st != nil {
		st.beginFrame() // each resource's token at most once per frame
	}
	b.Tokens = slices.Grow(b.Tokens, n)
	for i := 0; i < n; i++ {
		t := decToken(d)
		if d.Err() != nil {
			return b
		}
		b.Tokens = append(b.Tokens, t)
	}
	b.Holdings = decHoldings(d, b.Holdings)
	return b
}

// encToken puts one token on the wire. Without a Stream (off-stream,
// or in a cluster that does not run delta) it is the bare snapshot
// layout; under one it dispatches to the stateful delta
// encoder (delta.go), which ships a full snapshot the first time a
// resource's token crosses the stream and field deltas afterwards.
func encToken(e *wire.Enc, t *token) {
	if st := encDeltaState(e); st != nil {
		st.encode(e, t)
		return
	}
	encTokenSnap(e, t)
}

func decToken(d *wire.Dec) *token {
	if st := decDeltaState(d); st != nil {
		return st.decode(d)
	}
	return decTokenSnap(d)
}

// encTokenSnap is the legacy full-snapshot token layout. Field order
// is load-bearing: changing it is a wire break.
func encTokenSnap(e *wire.Enc, t *token) {
	e.Varint(int64(t.R))
	e.Varint(t.Counter)
	e.Int64s(t.LastReqC)
	e.Int64s(t.LastCS)
	e.Uvarint(uint64(len(t.Queue)))
	for _, q := range t.Queue {
		encRef(e, q)
	}
	e.Uvarint(uint64(len(t.Loans)))
	for _, l := range t.Loans {
		encRef(e, l.Ref)
		e.Varint(int64(l.R))
		e.Set(l.Missing)
	}
	e.Node(t.Lender)
	e.Varint(t.Epoch)
	e.Varint(t.Ver)
}

// stampRoom gives t's stamp vectors n entries each, reusing their
// storage when it has room; fresh ones are cut from one allocation.
// Their content is left for the caller to overwrite.
func (t *token) stampRoom(n int) {
	if cap(t.LastReqC) >= n && cap(t.LastCS) >= n {
		t.LastReqC, t.LastCS = t.LastReqC[:n], t.LastCS[:n]
		return
	}
	stamps := make([]int64, 2*n)
	t.LastReqC, t.LastCS = stamps[:n:n], stamps[n:]
}

// decTokenSnap overwrites every field of a pooled token, reusing its
// storage where it has room.
func decTokenSnap(d *wire.Dec) *token {
	t := tokenPool.Get().(*token)
	t.R = d.Res()
	t.Counter = d.Varint()
	t.Queue, t.Loans = t.Queue[:0], t.Loans[:0]
	// Both stamp vectors are N long on an honest token.
	n := d.Count()
	if d.Err() != nil || !d.Charge(16*n) {
		return t
	}
	t.stampRoom(n)
	d.Varints(t.LastReqC)
	if n2 := d.Count(); n2 != n && d.Err() == nil {
		d.Fail("token stamp vectors of %d and %d entries", n, n2)
		return t
	}
	d.Varints(t.LastCS)
	// The stamp vectors are indexed by site id all over the node code;
	// under shape validation they must be exactly N long.
	if nn, _ := d.Shape(); nn > 0 && d.Err() == nil &&
		(len(t.LastReqC) != nn || len(t.LastCS) != nn) {
		d.Fail("token stamp vectors of %d/%d entries in a cluster of %d",
			len(t.LastReqC), len(t.LastCS), nn)
		return t
	}
	n = d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(reqRef{}))) {
		return t
	}
	if cap(t.Queue) < n {
		t.Queue = make(wqueue, 0, n)
	}
	for i := 0; i < n; i++ {
		r := decRef(d)
		if d.Err() != nil {
			return t
		}
		t.Queue = append(t.Queue, r)
	}
	n = d.Count()
	if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(loanEntry{}))) {
		return t
	}
	if cap(t.Loans) < n {
		t.Loans = make([]loanEntry, 0, n)
	}
	for i := 0; i < n; i++ {
		var l loanEntry
		l.Ref = decRef(d)
		l.R = d.Res()
		l.Missing = d.Set()
		if l.Missing.Universe() == 0 && d.Err() == nil {
			d.Fail("loan entry without a missing set")
		}
		if d.Err() != nil {
			return t
		}
		t.Loans = append(t.Loans, l)
	}
	t.Lender = d.Node()
	t.Epoch = d.Varint()
	t.Ver = d.Varint()
	if (t.Epoch < 0 || t.Ver < 0) && d.Err() == nil {
		d.Fail("negative token epoch %d or version %d", t.Epoch, t.Ver)
	}
	return t
}

func encRef(e *wire.Enc, r reqRef) {
	e.Node(r.Site)
	e.Varint(r.ID)
	e.F64(r.Mark)
}

func decRef(d *wire.Dec) reqRef {
	return reqRef{Site: d.Site(), ID: d.Varint(), Mark: d.F64()}
}

// codecSamples builds one representative message per shape the LASS
// protocol produces: plain and loan requests, counter replies, a token
// carrying queue, loans, lender and version state, and holdings, first-
// hand and relayed.
func codecSamples() []network.Message {
	missing := resource.FromIDs(8, 2, 5)
	tok := newToken(3, 4)
	tok.Counter = 17
	tok.LastReqC[1] = 6
	tok.LastCS[2] = 5
	tok.Queue.Insert(reqRef{Site: 1, ID: 7, Mark: 2.5})
	tok.Queue.Insert(reqRef{Site: 3, ID: 4, Mark: 1.25})
	tok.Loans = append(tok.Loans, loanEntry{Ref: reqRef{Site: 2, ID: 9, Mark: 3}, R: 3, Missing: missing})
	tok.Lender = 2
	tok.Epoch = 2 // a regenerated token's bumped authority generation
	tok.Ver = 5   // its fifth transfer since
	return []network.Message{
		&reqBatch{
			Visited: []network.NodeID{0, 2},
			Reqs: []request{
				{Kind: reqCnt, R: 1, Init: 0, ID: 3},
				{Kind: reqCnt, R: 2, Init: 0, ID: 3, Single: true},
				{Kind: reqRes, R: 4, Init: 2, ID: 8, Mark: 1.5},
				{Kind: reqLoan, R: 5, Init: 1, ID: 2, Mark: 0.5},
			},
			Missing: []resource.Set{missing},
			// Sent by site 0 in transport's egress goldens: two tokens
			// it holds, then two holdings it relays.
			Holdings: []holding{{0, 0, tokVer{Ver: 3}}, {6, 0, tokVer{Epoch: 1, Ver: 12}},
				{3, 1, tokVer{Ver: 7}}, {7, 3, tokVer{Epoch: 2, Ver: 1}}},
		},
		&reqBatch{},
		&respBatch{
			Counters: []counterVal{{R: 1, Val: 42, ID: 3}, {R: 2, Val: 7, ID: 3}},
			Tokens:   []*token{tok, newToken(0, 4)},
			// Sent by site 1: the same mix.
			Holdings: []holding{{1, 1, tokVer{Ver: 9}}, {2, 1, tokVer{Ver: 4}},
				{5, 2, tokVer{Ver: 3}}, {6, 0, tokVer{Epoch: 1, Ver: 2}}},
		},
		&respBatch{Counters: []counterVal{{R: 0, Val: 1, ID: 1}}, Holdings: []holding{{4, 3, tokVer{Ver: 1}}}},
		// Two loans with sets of their own between the other kinds: a
		// set is found by its loan's position among the loans.
		// (Last: transport's egress goldens send the first four samples.)
		&reqBatch{
			Visited: []network.NodeID{1},
			Reqs: []request{
				{Kind: reqLoan, R: 2, Init: 1, ID: 4, Mark: 0.5},
				{Kind: reqCnt, R: 6, Init: 3, ID: 1},
				{Kind: reqRes, R: 0, Init: 2, ID: 8, Mark: 1.5},
				{Kind: reqLoan, R: 7, Init: 3, ID: 2, Mark: 2},
				{Kind: reqCnt, R: 3, Init: 0, ID: 5, Single: true},
			},
			Missing:  []resource.Set{missing, resource.FromIDs(8, 7)},
			Holdings: []holding{{1, 0, tokVer{Ver: 2}}},
		},
	}
}
