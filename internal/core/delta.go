package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// Delta-encoded token state. A token carries two N-sized stamp
// vectors, so at large N the LASS.Response payload is dominated by
// bytes that barely change between transfers: one transfer typically
// bumps the counter a few times, touches a handful of stamp entries
// and moves one queue head. On a link of a cluster that runs
// wire.FeatDelta — which is exactly when the transport hands the codec a
// wire.Stream — both ends therefore keep a per-resource shadow
// of the last token state that crossed the stream: the first transfer
// of a resource's token ships the full snapshot, later transfers ship
// only the changed fields, and the decoder replays them onto its
// shadow to reconstruct the exact token.
//
// Wire forms (replacing the bare snapshot of encTokenSnap under a
// Stream only — without one the encoding is the bare snapshot):
//
//	full:  uvarint(0), uvarint(epoch), uvarint(seq), <snapshot fields>
//	delta: uvarint(1), varint(R), uvarint(epoch), uvarint(seq),
//	       varint(dCounter),
//	       2 × stamp-vector diff: uvarint(k), k × (uvarint(idxGap), varint(dVal)),
//	       queue diff: removals  uvarint(k), k × uvarint(idxGap)   — into the old queue
//	                   inserts   uvarint(k), k × (uvarint(idxGap), ref) — into the new queue
//	       bool loansChanged [uvarint(k), k × loan entry],
//	       bool lenderChanged [node],
//	       varint(dEpoch), varint(dVer)
//
// Index gaps are absolute for the first entry and ≥1 after, so both
// lists are strictly ascending by construction. Queue edits are
// positional on both sides — removals index the pre-edit queue,
// insertions the post-edit queue — which reproduces the encoder's
// queue bytes exactly even when entries tie under the (Mark, Site)
// order and a value-based merge would be ambiguous.
//
// Correctness leans on the transport contract: the stream is reliable
// FIFO, so the decoder's shadow after applying transfer k equals the
// encoder's shadow when it produced transfer k+1. epoch names the
// encoder's cache generation (a fresh one per stream and per cache
// reset) and seq counts transfers of one resource within it; a delta
// whose (epoch, seq) does not extend the decoder's shadow — a
// corrupted or crafted stream — fails the decode with a resync error
// instead of applying garbage, and the resource heals on the next full
// snapshot. The encoder never produces that situation: any state it
// does not have a live shadow for (first transfer, cache reset, epoch
// bump) automatically falls back to a full snapshot.

const (
	tokFull  = 0
	tokDelta = 1
)

// maxDeltaEntries bounds either side's per-stream shadow cache. The
// encoder resets (fresh epoch, all-full fallback) when it would grow
// past the bound; the decoder simply stops caching new resources, so a
// hostile stream can make later deltas fail but never make the cache
// grow without bound.
const maxDeltaEntries = 4096

// deltaEpochs hands out a distinct epoch per encoder cache generation,
// process-wide, so shadows from different generations can never be
// mistaken for each other.
var deltaEpochs atomic.Uint64

type (
	tokenDeltaEncKey struct{}
	tokenDeltaDecKey struct{}
)

// deltaShadow is one cached token state: the last state that crossed
// the stream for its resource, with the (epoch, seq) stamp it carried.
type deltaShadow struct {
	epoch, seq uint64
	tok        token
}

// copyTokenInto copies src over dst, reusing dst's capacity. The lists
// are copied; a loan's missing set is shared, as no one writes it once
// it is queued (loanEntry.Missing).
func copyTokenInto(dst, src *token) {
	dst.R = src.R
	dst.Counter = src.Counter
	dst.LastReqC = append(dst.LastReqC[:0], src.LastReqC...)
	dst.LastCS = append(dst.LastCS[:0], src.LastCS...)
	dst.Queue = append(dst.Queue[:0], src.Queue...)
	dst.Loans = append(dst.Loans[:0], src.Loans...)
	dst.Lender = src.Lender
	dst.Epoch = src.Epoch
	dst.Ver = src.Ver
}

// tokenDeltaEnc is the egress half: one per delta-capable stream,
// shared by every sender encoding onto that connection (hence the
// lock; token ownership serializes transfers of one resource, so the
// per-resource seq order always matches append order).
type tokenDeltaEnc struct {
	mu    sync.Mutex
	epoch uint64
	m     map[resource.ID]*deltaShadow

	// Queue edit-script scratch, reused across transfers (mu held for
	// the whole encode, so no further synchronization): the hot path
	// must not allocate per token.
	remIdx, insIdx []int
	insRef         []reqRef
}

func encDeltaState(e *wire.Enc) *tokenDeltaEnc {
	s := e.Stream()
	if s == nil {
		return nil
	}
	return s.Value(tokenDeltaEncKey{}, func() any {
		return &tokenDeltaEnc{epoch: deltaEpochs.Add(1), m: make(map[resource.ID]*deltaShadow)}
	}).(*tokenDeltaEnc)
}

func (st *tokenDeltaEnc) encode(e *wire.Enc, t *token) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sh := st.m[t.R]
	if sh == nil || len(sh.tok.LastReqC) != len(t.LastReqC) {
		if sh == nil && len(st.m) >= maxDeltaEntries {
			// Reset rather than evict: an eviction the decoder cannot
			// observe would desync the caches, a fresh epoch
			// re-establishes every resource with a full snapshot.
			st.m = make(map[resource.ID]*deltaShadow)
			st.epoch = deltaEpochs.Add(1)
		}
		if sh == nil {
			sh = &deltaShadow{}
			st.m[t.R] = sh
		}
		sh.epoch, sh.seq = st.epoch, 1
		e.Uvarint(tokFull)
		e.Uvarint(sh.epoch)
		e.Uvarint(sh.seq)
		encTokenSnap(e, t)
		copyTokenInto(&sh.tok, t)
		return
	}
	sh.seq++
	e.Uvarint(tokDelta)
	e.Varint(int64(t.R))
	e.Uvarint(sh.epoch)
	e.Uvarint(sh.seq)
	st.encTokenDelta(e, &sh.tok, t)
	copyTokenInto(&sh.tok, t)
}

func (st *tokenDeltaEnc) encTokenDelta(e *wire.Enc, old, t *token) {
	e.Varint(t.Counter - old.Counter)
	encStampDelta(e, old.LastReqC, t.LastReqC)
	encStampDelta(e, old.LastCS, t.LastCS)
	st.encQueueDelta(e, old.Queue, t.Queue)
	if loansEqual(old.Loans, t.Loans) {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Uvarint(uint64(len(t.Loans)))
		for _, l := range t.Loans {
			encRef(e, l.Ref)
			e.Varint(int64(l.R))
			e.Set(l.Missing)
		}
	}
	if t.Lender == old.Lender {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.Node(t.Lender)
	}
	// Authority-epoch delta: almost always 0 (one byte), non-zero only
	// when a regenerated token crosses a stream that had already
	// shadowed its predecessor. Then the version delta, appended last:
	// the transfers the token made since it last crossed the stream.
	e.Varint(t.Epoch - old.Epoch)
	e.Varint(t.Ver - old.Ver)
}

func loansEqual(a, b []loanEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref || a[i].R != b[i].R || !a[i].Missing.Equal(b[i].Missing) {
			return false
		}
	}
	return true
}

// encStampDelta writes the changed entries of one per-site stamp
// vector: count, then (index gap, value delta) pairs.
func encStampDelta(e *wire.Enc, old, cur []int64) {
	n := 0
	for i := range cur {
		if cur[i] != old[i] {
			n++
		}
	}
	e.Uvarint(uint64(n))
	prev := 0
	for i := range cur {
		if cur[i] != old[i] {
			e.Uvarint(uint64(i - prev))
			e.Varint(cur[i] - old[i])
			prev = i
		}
	}
}

// encQueueDelta writes the positional edit script from old to cur: the
// indices to delete from old (ascending), then the (final index, ref)
// insertions that yield cur.
func (st *tokenDeltaEnc) encQueueDelta(e *wire.Enc, old, cur wqueue) {
	// A sorted merge walk: matched entries advance both cursors,
	// everything else becomes a removal (old side) or an insertion (cur
	// side). Order-equal but unequal entries — same (Mark, Site),
	// different ID — are removal+insertion, keeping the walk total.
	remIdx, insIdx, insRef := st.remIdx[:0], st.insIdx[:0], st.insRef[:0]
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case i >= len(old):
			insIdx, insRef = append(insIdx, j), append(insRef, cur[j])
			j++
		case j >= len(cur) || old[i] != cur[j] && old[i].precedes(cur[j]):
			remIdx = append(remIdx, i)
			i++
		case old[i] == cur[j]:
			i++
			j++
		case cur[j].precedes(old[i]):
			insIdx, insRef = append(insIdx, j), append(insRef, cur[j])
			j++
		default:
			remIdx = append(remIdx, i)
			i++
		}
	}
	e.Uvarint(uint64(len(remIdx)))
	prev := 0
	for k, idx := range remIdx {
		if k == 0 {
			e.Uvarint(uint64(idx))
		} else {
			e.Uvarint(uint64(idx - prev))
		}
		prev = idx
	}
	e.Uvarint(uint64(len(insIdx)))
	prev = 0
	for k, idx := range insIdx {
		if k == 0 {
			e.Uvarint(uint64(idx))
		} else {
			e.Uvarint(uint64(idx - prev))
		}
		prev = idx
		encRef(e, insRef[k])
	}
	st.remIdx, st.insIdx, st.insRef = remIdx, insIdx, insRef
}

// tokenDeltaDec is the ingress half: one per delta-capable stream,
// owned by the connection's single decode goroutine. epoch mirrors
// the encoder's current cache generation: every message the encoder
// produces carries its current epoch, so a full snapshot arriving
// with a new one proves the encoder reset — all older-generation
// shadows are dead (the encoder re-fulls before ever delta-ing them)
// and are dropped wholesale, keeping the two caches the same size.
type tokenDeltaDec struct {
	epoch uint64
	m     map[resource.ID]*deltaShadow

	// seen lists the resources already decoded in the current frame
	// (reset by decRespBatch): a token may appear once per frame. An
	// honest sender cannot repeat one (ownership leaves with the
	// send), and the dedup is what bounds a frame's reconstruction
	// fan-out — a delta's expansion is deliberately not charged to the
	// frame budget (see decode), so without it a tiny frame packed
	// with repeated no-op deltas could re-materialize one big shadow
	// thousands of times. With it, a frame reconstructs at most the
	// distinct resources it names — under shape validation at most M,
	// exactly what an honest respBatch of that cluster could carry.
	seen []resource.ID
}

// beginFrame resets the per-frame dedup; decRespBatch calls it before
// decoding a frame's tokens.
func (st *tokenDeltaDec) beginFrame() { st.seen = st.seen[:0] }

// frameDup records r as decoded in this frame, reporting a duplicate.
func (st *tokenDeltaDec) frameDup(d *wire.Dec, r resource.ID) bool {
	for _, x := range st.seen {
		if x == r {
			d.Fail("token for resource %d appears twice in one frame", r)
			return true
		}
	}
	st.seen = append(st.seen, r)
	return false
}

func decDeltaState(d *wire.Dec) *tokenDeltaDec {
	s := d.Stream()
	if s == nil {
		return nil
	}
	return s.Value(tokenDeltaDecKey{}, func() any {
		return &tokenDeltaDec{m: make(map[resource.ID]*deltaShadow)}
	}).(*tokenDeltaDec)
}

func (st *tokenDeltaDec) decode(d *wire.Dec) *token {
	switch mode := d.Uvarint(); mode {
	case tokFull:
		epoch := d.Uvarint()
		seq := d.Uvarint()
		t := decTokenSnap(d)
		if d.Err() != nil || st.frameDup(d, t.R) {
			return t
		}
		if epoch != st.epoch {
			// The encoder opened a new cache generation: its shadows
			// from the old one are gone, so ours are unreachable too.
			if len(st.m) > 0 {
				st.m = make(map[resource.ID]*deltaShadow)
			}
			st.epoch = epoch
		}
		sh := st.m[t.R]
		if sh == nil {
			if len(st.m) >= maxDeltaEntries {
				// Backstop for a stream that packs more same-epoch
				// snapshots than any honest encoder could (the encoder
				// resets — changing epoch — at this very bound): serve
				// the snapshot but do not shadow it; a later delta for
				// this resource then fails with a resync error.
				return t
			}
			sh = &deltaShadow{}
			st.m[t.R] = sh
		}
		sh.epoch, sh.seq = epoch, seq
		if !d.Charge(tokenBytes(t)) {
			delete(st.m, t.R)
			return t
		}
		copyTokenInto(&sh.tok, t)
		return t
	case tokDelta:
		t := tokenPool.Get().(*token)
		r := d.Res()
		epoch := d.Uvarint()
		seq := d.Uvarint()
		if d.Err() != nil || st.frameDup(d, r) {
			return t
		}
		sh := st.m[r]
		switch {
		case sh == nil:
			d.Fail("token delta for resource %d without a base snapshot (resync needed)", r)
			return t
		case sh.epoch != epoch:
			d.Fail("token delta epoch %d against base epoch %d (resync needed)", epoch, sh.epoch)
			return t
		case sh.seq+1 != seq:
			d.Fail("token delta seq %d against base seq %d (resync needed)", seq, sh.seq)
			return t
		}
		applyTokenDelta(d, &sh.tok)
		if d.Err() != nil {
			// The shadow may be half-applied; only a fresh full
			// snapshot may resurrect this resource on this stream.
			delete(st.m, r)
			return t
		}
		sh.seq = seq
		// The reconstructed token is deliberately NOT charged against
		// this frame's allocation budget: a few-byte delta expanding to
		// an N-sized token is the entire point of the encoding. The
		// amplification is bounded instead by construction — the shadow
		// being copied was itself decoded (and budget-charged) from a
		// full snapshot on this stream, grown only by deltas the stream
		// paid for field by field, the cache holds at most
		// maxDeltaEntries of them, and the per-frame dedup (frameDup)
		// lets a frame re-materialize each one at most once.
		// The stamp vectors get room as a snapshot's do (stampRoom).
		t.stampRoom(len(sh.tok.LastReqC))
		copyTokenInto(t, &sh.tok)
		return t
	default:
		d.Fail("token mode %d out of range", mode)
		return &token{}
	}
}

// tokenBytes estimates a token's memory footprint for the decode
// allocation budget.
func tokenBytes(t *token) int {
	return int(unsafe.Sizeof(token{})) +
		16*len(t.LastReqC) +
		len(t.Queue)*int(unsafe.Sizeof(reqRef{})) +
		len(t.Loans)*int(unsafe.Sizeof(loanEntry{}))
}

// applyTokenDelta replays one delta onto the shadow in place. Any
// malformed field fails the decode through the sticky error; the
// caller then discards the shadow.
func applyTokenDelta(d *wire.Dec, tok *token) {
	tok.Counter += d.Varint()
	applyStampDelta(d, tok.LastReqC)
	applyStampDelta(d, tok.LastCS)
	// Deltas accumulate into the shadow across frames, so unlike a
	// snapshot (whose size the frame's own budget pays for, and which
	// replaces rather than grows) the queue needs an absolute cap: an
	// honest wQueue holds pending requests, at most a few per site, so
	// 4N+64 (N from the shadow's own stamp vectors) is far above any
	// legitimate state while denying a hostile stream unbounded
	// amplification. Overflow is a resync error like any other.
	applyQueueDelta(d, &tok.Queue, 4*len(tok.LastReqC)+64)
	if d.Err() != nil {
		return
	}
	if d.Bool() { // loans replaced wholesale
		n := d.Count()
		if d.Err() != nil || !d.Charge(n*int(unsafe.Sizeof(loanEntry{}))) {
			return
		}
		tok.Loans = tok.Loans[:0]
		for i := 0; i < n; i++ {
			var l loanEntry
			l.Ref = decRef(d)
			l.R = d.Res()
			l.Missing = d.Set()
			if l.Missing.Universe() == 0 && d.Err() == nil {
				d.Fail("loan entry without a missing set")
			}
			if d.Err() != nil {
				return
			}
			tok.Loans = append(tok.Loans, l)
		}
	}
	if d.Bool() {
		tok.Lender = d.Node()
	}
	tok.Epoch += d.Varint()
	tok.Ver += d.Varint()
	if (tok.Epoch < 0 || tok.Ver < 0) && d.Err() == nil {
		d.Fail("token delta yields negative epoch %d or version %d", tok.Epoch, tok.Ver)
	}
}

func applyStampDelta(d *wire.Dec, v []int64) {
	n := d.Count()
	if d.Err() != nil {
		return
	}
	if n > len(v) {
		d.Fail("stamp delta with %d changes over %d entries", n, len(v))
		return
	}
	idx := -1
	for k := 0; k < n; k++ {
		gap := d.Uvarint()
		dv := d.Varint()
		if d.Err() != nil {
			return
		}
		if k > 0 && gap == 0 {
			d.Fail("stamp delta indices not ascending")
			return
		}
		if gap > uint64(len(v)) {
			d.Fail("stamp delta index gap %d outside vector of %d", gap, len(v))
			return
		}
		if k == 0 {
			idx = int(gap)
		} else {
			idx += int(gap)
		}
		if idx >= len(v) {
			d.Fail("stamp delta index %d outside vector of %d", idx, len(v))
			return
		}
		v[idx] += dv
	}
}

func applyQueueDelta(d *wire.Dec, q *wqueue, maxLen int) {
	// Removals: strictly ascending indices into the current queue.
	n := d.Count()
	if d.Err() != nil {
		return
	}
	if n > len(*q) {
		d.Fail("queue delta removes %d of %d entries", n, len(*q))
		return
	}
	kept := (*q)[:0]
	idx, prev := -1, 0
	for k := 0; k < n; k++ {
		gap := d.Uvarint()
		if d.Err() != nil {
			*q = append(kept, (*q)[prev:]...)
			return
		}
		if k > 0 && gap == 0 || gap > uint64(len(*q)) {
			d.Fail("queue removal indices malformed (gap %d over %d entries)", gap, len(*q))
			*q = append(kept, (*q)[prev:]...)
			return
		}
		if k == 0 {
			idx = int(gap)
		} else {
			idx += int(gap)
		}
		if idx >= len(*q) {
			d.Fail("queue removal index %d outside queue of %d", idx, len(*q))
			*q = append(kept, (*q)[prev:]...)
			return
		}
		kept = append(kept, (*q)[prev:idx]...)
		prev = idx + 1
	}
	*q = append(kept, (*q)[prev:]...)

	// Insertions: strictly ascending indices into the final queue.
	n = d.Count()
	if d.Err() != nil || n > 0 && !d.Charge(n*int(unsafe.Sizeof(reqRef{}))) {
		return
	}
	if len(*q)+n > maxLen {
		d.Fail("queue delta grows the queue to %d entries (cap %d, resync needed)", len(*q)+n, maxLen)
		return
	}
	idx = -1
	for k := 0; k < n; k++ {
		gap := d.Uvarint()
		if d.Err() != nil {
			return
		}
		if k > 0 && gap == 0 || gap > uint64(len(*q)+n) {
			d.Fail("queue insert indices malformed (gap %d into queue of %d)", gap, len(*q))
			return
		}
		if k == 0 {
			idx = int(gap)
		} else {
			idx += int(gap)
		}
		ref := decRef(d)
		if d.Err() != nil {
			return
		}
		if idx > len(*q) {
			d.Fail("queue insert index %d outside queue of %d", idx, len(*q))
			return
		}
		*q = append(*q, reqRef{})
		copy((*q)[idx+1:], (*q)[idx:])
		(*q)[idx] = ref
	}
}
