package core

import (
	"fmt"
	"testing"

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
// — what a link that did not negotiate delta carries, and what a
// delta-off peer decodes — and under one it is the delta-capable form.
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
	e.Uvarint(0) // hints
	e.Uvarint(0) // relays
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
	// carry a holder hint.
	{
		enc := wire.NewStream()
		tok := seedTok()
		hints := []hint{{R: 0, V: tokVer{Ver: 1}}}
		full, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}, Hints: hints}, enc)
		if err != nil {
			f.Fatal(err)
		}
		tok.Counter++
		tok.Ver++
		tok.Queue.PopHead()
		delta, err := wire.AppendStream(nil, &respBatch{Tokens: []*token{tok}, Hints: hints}, enc)
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
