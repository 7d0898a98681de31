package core

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// hasPointer reports whether a value of type t holds anything the
// garbage collector must follow.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestHotRecordsPointerFree guards the slices requests are kept and
// copied in on the hot path — a batch's Reqs, the outbox's buffer, a
// pending history: their element types hold no pointer, so the memory
// is noscan and a copy needs no write barrier. A field added to request
// later must not silently undo that (a loan's missing set rides in a
// list of its own for this reason), nor grow it past 40 bytes.
func TestHotRecordsPointerFree(t *testing.T) {
	elem := func(holder any, field string) reflect.Type {
		f, ok := reflect.TypeOf(holder).FieldByName(field)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("%T has no slice field %s", holder, field)
		}
		return f.Type.Elem()
	}
	for _, c := range []struct {
		where string
		typ   reflect.Type
		max   uintptr
	}{
		{"batch.Reqs", elem(batch{}, "Reqs"), 40},
		{"history.reqs", elem(history{}, "reqs"), 40},
		{"outbox.reqs", elem(outbox{}, "reqs"), 48},
		{"batch.Counters", elem(batch{}, "Counters"), 24},
	} {
		if hasPointer(c.typ) {
			t.Errorf("%s holds %v, which contains a pointer", c.where, c.typ)
		}
		if c.typ.Size() > c.max {
			t.Errorf("%s holds %v of %d bytes, want ≤ %d", c.where, c.typ, c.typ.Size(), c.max)
		}
	}
	if unsafe.Sizeof(request{}) > 40 {
		t.Errorf("request is %d bytes, want ≤ 40", unsafe.Sizeof(request{}))
	}
	if !hasPointer(reflect.TypeOf(loanEntry{})) || hasPointer(reflect.TypeOf([2]reqRef{})) {
		t.Error("hasPointer misjudges a type with a known answer")
	}
}

// twoLoans is the sample batch with two reqLoans between requests of
// the other kinds, and the two sets in loan order.
func twoLoans(t *testing.T) (*reqBatch, resource.Set, resource.Set) {
	t.Helper()
	for _, m := range codecSamples() {
		if b, ok := m.(*reqBatch); ok && len(b.Missing) == 2 {
			if b.Reqs[0].Kind != reqLoan || b.Reqs[3].Kind != reqLoan || len(b.Reqs) != 5 || b.Missing[0].Equal(b.Missing[1]) {
				t.Fatalf("the two-loan sample changed shape: %v / %v", b.Reqs, b.Missing)
			}
			return b, b.Missing[0], b.Missing[1]
		}
	}
	t.Fatal("codecSamples has no batch with two loans")
	return nil, resource.Set{}, resource.Set{}
}

// TestLoanSetsSurviveTheCodec: the sets ride beside the requests in the
// record and inside them on the wire; decoding gives every loan its own
// set back, and a frame that puts a set anywhere else is refused.
func TestLoanSetsSurviveTheCodec(t *testing.T) {
	in, first, second := twoLoans(t)
	enc, err := wire.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	out := m.(*reqBatch)
	if !reflect.DeepEqual(out.Reqs, in.Reqs) || !reflect.DeepEqual(out.Visited, in.Visited) {
		t.Fatalf("decoded requests %v visited %v, want %v visited %v", out.Reqs, out.Visited, in.Reqs, in.Visited)
	}
	if len(out.Missing) != 2 || !out.Missing[0].Equal(first) || !out.Missing[1].Equal(second) {
		t.Fatalf("decoded sets %v, want [%v %v]", out.Missing, first, second)
	}

	// One request as a loan with its set and as a ReqRes without: the
	// encodings first differ at the request's kind. Swapping the kinds
	// there makes a ReqRes that carries a set and a loan that has none.
	loan := &reqBatch{Reqs: []request{{Kind: reqLoan, R: 2, Init: 1, ID: 4, Mark: 0.5}}, Missing: []resource.Set{first}}
	res := &reqBatch{Reqs: []request{{Kind: reqRes, R: 2, Init: 1, ID: 4, Mark: 0.5}}}
	withSet, err := wire.Append(nil, loan)
	if err != nil {
		t.Fatal(err)
	}
	without, err := wire.Append(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for withSet[at] == without[at] {
		at++
	}
	if withSet[at] != byte(reqLoan) || without[at] != byte(reqRes) {
		t.Fatalf("encodings first differ at byte %d (%d vs %d), want the request kinds", at, withSet[at], without[at])
	}
	withSet, without = bytes.Clone(withSet), bytes.Clone(without)
	withSet[at], without[at] = byte(reqRes), byte(reqLoan)
	if _, err := wire.Decode(withSet); err == nil {
		t.Error("a ReqRes carrying a missing set decoded")
	}
	if _, err := wire.Decode(without); err == nil {
		t.Error("a ReqLoan without a missing set decoded")
	}
}

// TestLoanSetsFollowTheirLoans walks the two-loan batch through a site
// that owns none of the tokens: every request is stored and forwarded,
// the flush regroups them by destination, and each loan must come out —
// in the history and in the forwarded batch — with the set it came in
// with, whatever was between the two and wherever the other one went.
func TestLoanSetsFollowTheirLoans(t *testing.T) {
	in, first, second := twoLoans(t)
	want := func(i int) request { return in.Reqs[i] }
	// deliver hands a copy of the batch to site 4 of a fresh system
	// whose fathers for the batch's resources are set by dest.
	deliver := func(opt Options, dest func(r resource.ID) network.NodeID) *fifoNet {
		f := newFifoNet(5, 8, opt)
		nd := f.nodes[4]
		for r := range nd.tokDir {
			nd.tokDir[r] = dest(resource.ID(r))
		}
		nd.Deliver(1, &reqBatch{
			Visited: append([]network.NodeID(nil), in.Visited...),
			Reqs:    append([]request(nil), in.Reqs...),
			Missing: append([]resource.Set(nil), in.Missing...),
		})
		for _, c := range []struct {
			r    resource.ID
			miss resource.Set
		}{{in.Reqs[0].R, first}, {in.Reqs[3].R, second}} {
			if h := nd.pending[c.r]; len(h.reqs) != 1 || len(h.miss) != 1 || !h.miss[0].Equal(c.miss) {
				t.Errorf("history of r%d: %v with sets %v, want one loan with %v", c.r, h.reqs, h.miss, c.miss)
			}
		}
		if len(nd.out.reqs)+len(nd.out.miss) != 0 {
			t.Errorf("outbox keeps %d requests and %d sets after the flush", len(nd.out.reqs), len(nd.out.miss))
		}
		return f
	}
	check := func(x fifoMsg, to network.NodeID, reqs []request, sets ...resource.Set) {
		t.Helper()
		b, ok := x.m.(*reqBatch)
		if !ok || x.to != to {
			t.Fatalf("message %T to s%d, want a request batch to s%d", x.m, x.to, to)
		}
		if !reflect.DeepEqual(b.Reqs, reqs) {
			t.Errorf("batch to s%d carries %v, want %v", to, b.Reqs, reqs)
		}
		if len(b.Missing) != len(sets) {
			t.Fatalf("batch to s%d carries %d sets, want %d", to, len(b.Missing), len(sets))
		}
		for i := range sets {
			if !b.Missing[i].Equal(sets[i]) {
				t.Errorf("batch to s%d: set %d is %v, want %v", to, i, b.Missing[i], sets[i])
			}
		}
	}

	// The loans part ways: the first goes to site 2 with the ReqRes and
	// the single ReqCnt, the second to site 3 behind the other ReqCnt.
	f := deliver(WithLoan(), func(r resource.ID) network.NodeID {
		if r == in.Reqs[1].R || r == in.Reqs[3].R {
			return 3
		}
		return 2
	})
	if len(f.queue) != 2 {
		t.Fatalf("%d batches forwarded, want 2", len(f.queue))
	}
	check(f.queue[0], 2, []request{want(0), want(2), want(4)}, first)
	check(f.queue[1], 3, []request{want(1), want(3)}, second)

	// Both to one site: one batch, the sets in loan order.
	f = deliver(WithLoan(), func(resource.ID) network.NodeID { return 2 })
	if len(f.queue) != 1 {
		t.Fatalf("%d batches forwarded, want 1", len(f.queue))
	}
	check(f.queue[0], 2, in.Reqs, first, second)

	// Without aggregation every request travels alone, a loan with its set.
	opt := WithLoan()
	opt.DisableAggregation = true
	f = deliver(opt, func(resource.ID) network.NodeID { return 2 })
	if len(f.queue) != len(in.Reqs) {
		t.Fatalf("%d messages forwarded, want %d", len(f.queue), len(in.Reqs))
	}
	for i, x := range f.queue {
		switch i {
		case 0:
			check(x, 2, []request{want(i)}, first)
		case 3:
			check(x, 2, []request{want(i)}, second)
		default:
			check(x, 2, []request{want(i)})
		}
	}
}

// TestLoanScanSkipsTokensLentAway: processLoanQueues walks the tokens
// owned when it started, and serving a loan queued on one of them can
// lend away another further down the walk — which then has no token
// here to look at, and whose own queued loans left with it.
func TestLoanScanSkipsTokensLentAway(t *testing.T) {
	f := newFifoNet(3, 4, WithLoan())
	nd := f.nodes[0] // owns every token, idle
	nd.tok[0].Loans = []loanEntry{{Ref: reqRef{Site: 1, ID: 1, Mark: 1}, R: 0, Missing: ids(4, 0, 1)}}
	nd.tok[1].Loans = []loanEntry{{Ref: reqRef{Site: 2, ID: 1, Mark: 2}, R: 1, Missing: ids(4, 1)}}
	nd.processLoanQueues()
	nd.flushOwn()
	if nd.stats.LoansGranted != 1 || nd.owned.Has(0) || nd.owned.Has(1) || nd.tok[1] != nil || !nd.lent.Equal(ids(4, 0, 1)) {
		t.Fatalf("after the scan: %d loans granted, owned %v, lent %v", nd.stats.LoansGranted, nd.owned, nd.lent)
	}
	if len(f.queue) != 1 || f.queue[0].to != 1 {
		t.Fatalf("%d messages sent, want both tokens to s1 in one", len(f.queue))
	}
	toks := f.queue[0].m.(*respBatch).Tokens
	if len(toks) != 2 || toks[1].R != 1 || len(toks[1].Loans) != 1 || toks[1].Loans[0].Ref.Site != 2 {
		t.Fatalf("lent tokens %+v, want r1's to carry s2's queued loan", toks)
	}
}
