package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// deltaPipe is one simulated delta-capable connection: an encoder-side
// and a decoder-side wire.Stream, as the transport builds them for a link
// whose two hellos carry wire.FeatDelta.
type deltaPipe struct {
	enc, dec *wire.Stream
}

func newDeltaPipe() *deltaPipe {
	return &deltaPipe{enc: wire.NewStream(), dec: wire.NewStream()}
}

// send encodes a respBatch carrying tok through the pipe's encoder
// stream, returning the frame bytes.
func (p *deltaPipe) send(t *testing.T, toks ...*token) []byte {
	t.Helper()
	b, err := wire.AppendStream(nil, &respBatch{Tokens: toks}, p.enc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recv decodes one frame through the pipe's decoder stream.
func (p *deltaPipe) recv(frame []byte, nodes, resources int) (*respBatch, error) {
	m, err := wire.DecodeStream(frame, nodes, resources, p.dec)
	if err != nil {
		return nil, err
	}
	return m.(*respBatch), nil
}

func tokensEqual(a, b *token) error {
	if a.R != b.R || a.Counter != b.Counter || a.Lender != b.Lender || a.Epoch != b.Epoch || a.Ver != b.Ver {
		return fmt.Errorf("scalar fields differ: %+v vs %+v", a, b)
	}
	if len(a.LastReqC) != len(b.LastReqC) || len(a.LastCS) != len(b.LastCS) {
		return fmt.Errorf("stamp vector lengths differ")
	}
	for i := range a.LastReqC {
		if a.LastReqC[i] != b.LastReqC[i] || a.LastCS[i] != b.LastCS[i] {
			return fmt.Errorf("stamps differ at site %d", i)
		}
	}
	if len(a.Queue) != len(b.Queue) {
		return fmt.Errorf("queue lengths differ: %v vs %v", a.Queue, b.Queue)
	}
	for i := range a.Queue {
		if a.Queue[i] != b.Queue[i] {
			return fmt.Errorf("queue entry %d differs: %v vs %v", i, a.Queue[i], b.Queue[i])
		}
	}
	if len(a.Loans) != len(b.Loans) {
		return fmt.Errorf("loan counts differ")
	}
	for i := range a.Loans {
		if a.Loans[i].Ref != b.Loans[i].Ref || a.Loans[i].R != b.Loans[i].R ||
			!a.Loans[i].Missing.Equal(b.Loans[i].Missing) {
			return fmt.Errorf("loan entry %d differs", i)
		}
	}
	return nil
}

// TestTokenDeltaRoundTrip drives one resource's token through a
// sequence of realistic transfers — counter bumps, stamp updates,
// queue churn, a loan appearing and clearing, the lender toggling —
// and requires every decoded token to equal the sent one exactly.
func TestTokenDeltaRoundTrip(t *testing.T) {
	const n, m = 16, 8
	p := newDeltaPipe()
	tok := newToken(3, n)
	var fullLen int
	for step := 0; step < 12; step++ {
		switch step % 4 {
		case 0:
			tok.Counter += int64(step + 1)
			tok.LastReqC[step%n] += 2
		case 1:
			tok.Queue.Insert(reqRef{Site: network.NodeID(step % n), ID: int64(step), Mark: float64(step) * 0.5})
			tok.LastCS[(step*3)%n]++
		case 2:
			if len(tok.Queue) > 0 {
				tok.Queue.PopHead()
			}
			tok.Loans = append(tok.Loans, loanEntry{
				Ref: reqRef{Site: 2, ID: int64(step), Mark: 1.5}, R: 3,
				Missing: resource.FromIDs(m, 1, 4),
			})
			tok.Lender = 5
		case 3:
			tok.Loans = nil
			tok.Lender = network.None
		}
		frame := p.send(t, tok)
		if step == 0 {
			fullLen = len(frame)
		} else if len(frame) >= fullLen {
			t.Errorf("step %d: delta frame of %d bytes not smaller than the full %d", step, len(frame), fullLen)
		}
		got, err := p.recv(frame, n, m)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(got.Tokens) != 1 {
			t.Fatalf("step %d: %d tokens decoded", step, len(got.Tokens))
		}
		if err := tokensEqual(tok, got.Tokens[0]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestTokenDeltaQueueTies pins the positional queue diff: entries that
// tie under the (Mark, Site) order but differ in ID are exactly the
// case where a value-based merge is ambiguous — the decoded queue must
// reproduce the encoder's ordering byte for byte anyway.
func TestTokenDeltaQueueTies(t *testing.T) {
	const n, m = 8, 4
	p := newDeltaPipe()
	tok := newToken(1, n)
	tok.Queue = wqueue{
		{Site: 2, ID: 10, Mark: 1.0},
		{Site: 2, ID: 11, Mark: 1.0}, // tied with the previous entry
		{Site: 5, ID: 3, Mark: 2.0},
	}
	if _, err := p.recv(p.send(t, tok), n, m); err != nil {
		t.Fatal(err)
	}
	// Swap the tied pair and drop the tail: a diff keyed on values
	// alone could not express this.
	tok.Queue = wqueue{
		{Site: 2, ID: 11, Mark: 1.0},
		{Site: 2, ID: 10, Mark: 1.0},
	}
	got, err := p.recv(p.send(t, tok), n, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tokensEqual(tok, got.Tokens[0]); err != nil {
		t.Fatal(err)
	}
}

// TestTokenDeltaMultipleResources interleaves two resources on one
// stream: each keeps its own shadow, each second transfer is a delta.
func TestTokenDeltaMultipleResources(t *testing.T) {
	const n, m = 8, 4
	p := newDeltaPipe()
	ta, tb := newToken(0, n), newToken(2, n)
	for step := 0; step < 3; step++ {
		ta.Counter++
		tb.LastCS[1] += 3
		got, err := p.recv(p.send(t, ta, tb), n, m)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := tokensEqual(ta, got.Tokens[0]); err != nil {
			t.Fatalf("step %d token a: %v", step, err)
		}
		if err := tokensEqual(tb, got.Tokens[1]); err != nil {
			t.Fatalf("step %d token b: %v", step, err)
		}
	}
}

// TestTokenDeltaResync exercises every resync path: a delta with no
// base, an epoch mismatch, a seq gap — each must fail the decode with
// an error (never apply), and a subsequent full snapshot must heal the
// stream.
func TestTokenDeltaResync(t *testing.T) {
	const n, m = 8, 4
	p := newDeltaPipe()
	tok := newToken(1, n)
	full := p.send(t, tok)
	tok.Counter++
	delta1 := p.send(t, tok)
	tok.Counter++
	delta2 := p.send(t, tok)

	// No base: a fresh decoder sees the delta first.
	fresh := newDeltaPipe()
	if _, err := fresh.recv(delta1, n, m); err == nil {
		t.Fatal("delta without a base snapshot decoded")
	}

	// Seq gap: skip delta1.
	gap := newDeltaPipe()
	if _, err := gap.recv(full, n, m); err != nil {
		t.Fatal(err)
	}
	if _, err := gap.recv(delta2, n, m); err == nil {
		t.Fatal("delta with a sequence gap decoded")
	}

	// Epoch mismatch: a base from one encoder generation, a delta from
	// another.
	other := newDeltaPipe()
	otherTok := newToken(1, n)
	cross := newDeltaPipe()
	if _, err := cross.recv(other.send(t, otherTok), n, m); err != nil {
		t.Fatal(err)
	}
	otherTok.Counter++
	// Decode p's delta1 (different epoch) against other's base.
	if _, err := cross.recv(delta1, n, m); err == nil {
		t.Fatal("delta from a different epoch decoded")
	}

	// Heal: after any of the failures above, a full snapshot
	// re-establishes the resource and deltas flow again.
	heal := newDeltaPipe()
	healTok := newToken(1, n)
	healTok.Counter = 40
	if _, err := heal.recv(heal.send(t, healTok), n, m); err != nil {
		t.Fatal(err)
	}
	healTok.Counter++
	got, err := heal.recv(heal.send(t, healTok), n, m)
	if err != nil {
		t.Fatalf("stream did not heal: %v", err)
	}
	if err := tokensEqual(healTok, got.Tokens[0]); err != nil {
		t.Fatal(err)
	}
}

// TestTokenDeltaEncoderResetHeals drives one stream through more
// distinct resources than either cache may hold: the encoder resets to
// a fresh epoch at the bound, and the decoder — seeing the new epoch
// on the next full snapshot — must drop its dead old-generation
// shadows and keep delta-decoding resources the old cache never held.
// (Regression: the decoder used to keep its full cache forever, so a
// stream touching > maxDeltaEntries resources had later deltas fail
// and the connection torn down in a loop.)
func TestTokenDeltaEncoderResetHeals(t *testing.T) {
	const n = 2
	p := newDeltaPipe()
	for r := 0; r <= maxDeltaEntries; r++ {
		tok := newToken(resource.ID(r), n)
		if _, err := p.recv(p.send(t, tok), n, 0); err != nil {
			t.Fatalf("resource %d: %v", r, err)
		}
	}
	// The encoder reset while sweeping; this resource lives in the new
	// generation only. Full, then delta — both must decode.
	late := newToken(maxDeltaEntries+1, n)
	if _, err := p.recv(p.send(t, late), n, 0); err != nil {
		t.Fatalf("post-reset full: %v", err)
	}
	late.Counter += 4
	late.Queue.Insert(reqRef{Site: 1, ID: 9, Mark: 0.25})
	got, err := p.recv(p.send(t, late), n, 0)
	if err != nil {
		t.Fatalf("post-reset delta: %v", err)
	}
	if err := tokensEqual(late, got.Tokens[0]); err != nil {
		t.Fatal(err)
	}
	// And a resource from the old generation comes back as a full
	// snapshot (encoder lost its shadow) that re-establishes deltas.
	early := newToken(3, n)
	early.Counter = 7
	if _, err := p.recv(p.send(t, early), n, 0); err != nil {
		t.Fatalf("old-generation resource re-full: %v", err)
	}
	early.Counter++
	if _, err := p.recv(p.send(t, early), n, 0); err != nil {
		t.Fatalf("old-generation resource delta: %v", err)
	}
}

// TestTokenDeltaQueueGrowthBounded: deltas accumulate into the
// decoder's shadow across frames, so a hostile stream of well-formed
// queue-insert deltas must hit the absolute queue cap (a resync
// error), not grow receiver memory without bound.
func TestTokenDeltaQueueGrowthBounded(t *testing.T) {
	const n = 4
	p := newDeltaPipe()
	tok := newToken(1, n)
	full := p.send(t, tok)
	if _, err := p.recv(full, n, 0); err != nil {
		t.Fatal(err)
	}
	// Recover the epoch/seq the full snapshot carried so the crafted
	// delta extends the decoder's shadow legitimately.
	d := wire.NewDec(full)
	_ = d.String()  // kind
	_ = d.Count()   // counters
	_ = d.Count()   // tokens
	_ = d.Uvarint() // mode: full
	epoch, seq := d.Uvarint(), d.Uvarint()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}

	// A well-formed delta appending far more queue entries than any
	// honest wQueue could hold (the cap is 4N+64).
	var e wire.Enc
	e.String("LASS.Response")
	e.Uvarint(0) // counters
	e.Uvarint(1) // tokens
	e.Uvarint(1) // mode: delta
	e.Varint(1)  // R
	e.Uvarint(epoch)
	e.Uvarint(seq + 1)
	e.Varint(0)  // counter delta
	e.Uvarint(0) // reqC changes
	e.Uvarint(0) // CS changes
	e.Uvarint(0) // removals
	const k = 4*n + 64 + 1
	e.Uvarint(k)
	for i := 0; i < k; i++ {
		if i == 0 {
			e.Uvarint(0)
		} else {
			e.Uvarint(1)
		}
		e.Node(0)
		e.Varint(int64(i))
		e.F64(float64(i))
	}
	e.Bool(false) // loans unchanged
	e.Bool(false) // lender unchanged
	if _, err := wire.DecodeStream(e.Bytes(), n, 0, p.dec); err == nil {
		t.Fatal("queue-growth delta past the cap decoded")
	}
	// The poisoned shadow is gone; a fresh encoder generation (what a
	// redial produces) heals the resource through a full snapshot.
	enc2 := wire.NewStream()
	tok.Counter = 9
	frame, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}}, enc2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeStream(frame, n, 0, p.dec); err != nil {
		t.Fatalf("stream did not heal after the overgrown delta: %v", err)
	}
}

// TestTokenDeltaFrameDedup: one frame may carry each resource's token
// at most once (an honest sender cannot repeat one — ownership leaves
// with the send). The dedup is what bounds a frame's reconstruction
// fan-out, since delta expansion is deliberately not charged to the
// frame budget: without it, a tiny frame repeating no-op deltas would
// re-materialize one big shadow thousands of times.
func TestTokenDeltaFrameDedup(t *testing.T) {
	const n = 4
	p := newDeltaPipe()
	tok := newToken(1, n)
	if _, err := p.recv(p.send(t, tok), n, 0); err != nil {
		t.Fatal(err)
	}
	// Two consecutive deltas for the same resource are fine across
	// frames...
	tok.Counter++
	d1 := p.send(t, tok)
	tok.Counter++
	d2 := p.send(t, tok)
	// ...but concatenated into ONE respBatch frame they must be
	// rejected. Build it by hand: both deltas are valid individually,
	// so only the per-frame dedup can refuse the pair.
	parse := func(frame []byte) []byte {
		d := wire.NewDec(frame)
		_ = d.String() // kind
		_ = d.Count()  // counters
		_ = d.Count()  // tokens
		return d.Rest()
	}
	var e wire.Enc
	e.String("LASS.Response")
	e.Uvarint(0) // counters
	e.Uvarint(2) // tokens
	combined := append(e.Bytes(), parse(d1)...)
	combined = append(combined, parse(d2)...)
	if _, err := wire.DecodeStream(combined, n, 0, p.dec); err == nil {
		t.Fatal("frame carrying the same resource's token twice decoded")
	}
	// The poisoned entry healed by a fresh generation's full snapshot.
	enc2 := wire.NewStream()
	frame, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}}, enc2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeStream(frame, n, 0, p.dec); err != nil {
		t.Fatalf("stream did not heal: %v", err)
	}
}

// TestTokenDeltaLegacyUnchanged: the Stream is the whole decision.
// Without one the encoding is byte-identical to the bare snapshot layout
// — what a link of a cluster without delta carries — and under one it
// is the delta-capable form.
func TestTokenDeltaLegacyUnchanged(t *testing.T) {
	tok := newToken(2, 4)
	tok.Counter = 9
	tok.Queue.Insert(reqRef{Site: 1, ID: 2, Mark: 0.5})
	msg := &respBatch{Tokens: []*token{tok}}
	legacy, err := wire.Append(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Enc
	e.String(msg.Kind())
	e.Uvarint(0) // counters
	e.Uvarint(1) // tokens
	encTokenSnap(&e, tok)
	e.Uvarint(0) // holdings
	if string(legacy) != string(e.Bytes()) {
		t.Fatal("stream-free encoding differs from the bare snapshot layout")
	}
	if _, err := wire.Decode(legacy); err != nil {
		t.Fatal(err)
	}
	framed, err := wire.AppendStream(nil, msg, wire.NewStream())
	if err != nil {
		t.Fatal(err)
	}
	if string(framed) == string(legacy) {
		t.Fatal("a Stream was passed and the token still travelled as a bare snapshot")
	}
}

// TestTokenDeltaSavingsAtLargeN pins the point of the exercise: at
// N=512, a steady-state transfer (few changed fields) must encode to
// well under half the full snapshot.
func TestTokenDeltaSavingsAtLargeN(t *testing.T) {
	const n = 512
	p := newDeltaPipe()
	tok := newToken(0, n)
	for i := range tok.LastReqC {
		tok.LastReqC[i] = int64(i % 7)
		tok.LastCS[i] = int64(i % 5)
	}
	full := p.send(t, tok)
	tok.Counter += 3
	tok.LastReqC[17] += 2
	tok.LastCS[401]++
	tok.Queue.Insert(reqRef{Site: 9, ID: 4, Mark: 2.25})
	delta := p.send(t, tok)
	if len(delta)*4 > len(full) {
		t.Fatalf("delta of %d bytes vs full %d: expected ≥4× saving", len(delta), len(full))
	}
	got, err := p.recv(full, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	got2, err := p.recv(delta, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tokensEqual(tok, got2.Tokens[0]); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaTokensCutBytes prices the delta-encoded token state every
// peer link runs, on the live largeN/n128 cell's shape and request
// pattern: 128 counter-loan sites over 32 resources, split into two
// halves of 64 as the cell's two daemons split them, and 32 callers,
// caller w's operation i acquiring resources i+7w and i+7w+11 (mod 32)
// on site i+13w (mod 128). Every record sent between the halves is
// encoded at send time twice: under one wire.Stream per direction, as
// a link carries it, and with no Stream, as full snapshots. Both
// encodings price the same records, so the traffic is identical by
// construction. The delta bytes must be at most 0.80× the snapshot
// bytes (the live cell read 0.61–0.65 with its frame headers), and
// every delta record must decode to the record sent.
func TestDeltaTokensCutBytes(t *testing.T) {
	const n, m, callers, ops = 128, 32, 32, 2000
	tap := &halvesTap{n: n, m: m}
	for i := range tap.enc {
		tap.enc[i], tap.dec[i] = wire.NewStream(), wire.NewStream()
	}
	w := explore.New(func(n, m int) []alg.Node {
		nodes := NewFactory(WithLoan())(n, m)
		for i, nd := range nodes {
			nodes[i] = &tappedNode{Node: nd.(*Node), tap: tap}
		}
		return nodes
	}, n, m)

	// The callers share the operations in order, as the cell's closed
	// loop does; a site serves its callers one at a time, in order.
	queued := make([][]int, n) // per site, the callers waiting on it
	caller := make([]int, n)   // per site, the caller it serves
	sets := make([]resource.Set, callers)
	next := 0
	assign := func(c int) {
		if next == ops {
			return
		}
		i := next
		next++
		r1 := (i + 7*c) % m
		sets[c] = resource.FromIDs(m, resource.ID(r1), resource.ID((r1+11)%m))
		s := (i + 13*c) % n
		queued[s] = append(queued[s], c)
	}
	for c := range callers {
		assign(c)
	}
	busy := make([]bool, n)
	for done := 0; done < ops; {
		for s := range n {
			if !busy[s] && len(queued[s]) > 0 {
				caller[s], queued[s] = queued[s][0], queued[s][1:]
				busy[s] = true
				w.Request(s, sets[caller[s]])
			}
		}
		w.Drain(nil)
		granted := 0
		for s := range n {
			if w.InCS(s) {
				w.Release(s)
				busy[s] = false
				granted++
				assign(caller[s])
			}
		}
		if granted == 0 {
			t.Fatalf("no grant after %d of %d operations with nothing in flight", done, ops)
		}
		done += granted
	}
	if tap.err != nil {
		t.Fatal(tap.err)
	}
	ratio := float64(tap.delta) / float64(tap.snap)
	t.Logf("%d records between the halves: %d bytes as deltas, %d as snapshots, ratio %.3f",
		tap.records, tap.delta, tap.snap, ratio)
	if tap.records == 0 || ratio > 0.80 {
		t.Errorf("delta bytes %.3f× the snapshot bytes over %d records, want ≤ 0.80", ratio, tap.records)
	}
}

// halvesTap encodes every record sent between sites [0, n/2) and
// [n/2, n) both ways, and decodes the delta encoding back.
type halvesTap struct {
	n, m        int
	enc, dec    [2]*wire.Stream // per direction: from the lower half, from the upper
	delta, snap int             // bytes of each encoding
	records     int
	dbuf, sbuf  []byte
	err         error
}

func (x *halvesTap) sent(from, to network.NodeID, msg network.Message) {
	dir := int(from) * 2 / x.n
	if dir == int(to)*2/x.n || x.err != nil {
		return
	}
	var err error
	if x.dbuf, err = wire.AppendStream(x.dbuf[:0], msg, x.enc[dir]); err != nil {
		x.err = err
		return
	}
	if x.sbuf, err = wire.Append(x.sbuf[:0], msg); err != nil {
		x.err = err
		return
	}
	x.records++
	x.delta += len(x.dbuf)
	x.snap += len(x.sbuf)
	got, err := wire.DecodeStream(x.dbuf, x.n, x.m, x.dec[dir])
	if err != nil {
		x.err = fmt.Errorf("record %d, s%d to s%d: %v", x.records, from, to, err)
		return
	}
	if again, _ := wire.Append(nil, got); !bytes.Equal(again, x.sbuf) {
		x.err = fmt.Errorf("record %d, s%d to s%d: the delta encoding decodes to another record", x.records, from, to)
	}
}

// tappedNode is a core node whose sends halvesTap sees first.
type tappedNode struct {
	*Node
	tap *halvesTap
}

func (x *tappedNode) Attach(env alg.Env) { x.Node.Attach(tappedEnv{env, x.tap}) }

type tappedEnv struct {
	alg.Env
	tap *halvesTap
}

func (e tappedEnv) Send(to network.NodeID, msg network.Message) {
	e.tap.sent(e.ID(), to, msg)
	e.Env.Send(to, msg)
}

// FuzzTokenDelta: arbitrary bytes decoded as the second frame of a
// delta-capable stream — after a valid base snapshot primed the shadow
// — must never panic, and whatever they did to the stream, a valid
// full+delta pair afterwards must decode cleanly (resync on
// corruption).
func FuzzTokenDelta(f *testing.F) {
	const n, m = 8, 4
	seedTok := func() *token {
		tok := newToken(1, n)
		tok.Counter = 7
		tok.LastReqC[2] = 3
		tok.Queue.Insert(reqRef{Site: 4, ID: 1, Mark: 1.5})
		tok.Ver = 2
		return tok
	}
	// Seeds: a valid delta, a valid full, and the empty input; both
	// carry a holding.
	{
		enc := wire.NewStream()
		tok := seedTok()
		hs := []holding{{0, 1, tokVer{Ver: 1}}}
		full, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}, Holdings: hs}, enc)
		if err != nil {
			f.Fatal(err)
		}
		tok.Counter++
		tok.Ver++
		tok.Queue.PopHead()
		delta, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}, Holdings: hs}, enc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(full)
		f.Add(delta)
		f.Add([]byte{})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		enc := wire.NewStream()
		dec := wire.NewStream()
		tok := seedTok()
		base, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}}, enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeStream(base, n, m, dec); err != nil {
			t.Fatalf("priming snapshot rejected: %v", err)
		}
		// The fuzz input plays the second frame; it may decode or fail,
		// it must not panic.
		_, _ = wire.DecodeStream(b, n, m, dec)
		// Resync: a fresh encoder generation heals the stream through a
		// full snapshot, whatever the input above did to the shadow.
		enc2 := wire.NewStream()
		tok2 := seedTok()
		tok2.Counter = 100
		full2, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok2}}, enc2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeStream(full2, n, m, dec); err != nil {
			t.Fatalf("full snapshot did not resync the stream: %v", err)
		}
		tok2.Counter++
		tok2.Ver++
		delta2, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok2}}, enc2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodeStream(delta2, n, m, dec)
		if err != nil {
			t.Fatalf("delta after resync rejected: %v", err)
		}
		if err := tokensEqual(tok2, got.(*respBatch).Tokens[0]); err != nil {
			t.Fatalf("post-resync token wrong: %v", err)
		}
	})
}

// TestDeltaDecodeAllocs pins what decoding one LASS.Response that
// carries a delta-encoded token allocates: the record, the token and
// one array for both of its stamp vectors, as a snapshot's are cut.
// The pools start empty, whatever the tests before this one recycled:
// a collection moves a sync.Pool's contents aside and the next drops
// them.
func TestDeltaDecodeAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	runtime.GC()
	runtime.GC()
	const n, m, runs = 8, 4, 50
	enc, dec := wire.NewStream(), wire.NewStream()
	tok := newToken(1, n)
	frames := make([][]byte, runs+2) // a snapshot, then AllocsPerRun's runs+1 deltas
	for i := range frames {
		tok.Counter++
		tok.LastCS[i%n]++
		tok.Ver++
		var err error
		if frames[i], err = wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}}, enc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wire.DecodeStream(frames[0], n, m, dec); err != nil {
		t.Fatal(err)
	}
	next := 1
	got := testing.AllocsPerRun(runs, func() {
		if _, err := wire.DecodeStream(frames[next], n, m, dec); err != nil {
			t.Fatalf("delta %d: %v", next, err)
		}
		next++
	})
	if got != 3 {
		t.Errorf("%v allocations per delta-token response decoded, want 3", got)
	}
}
