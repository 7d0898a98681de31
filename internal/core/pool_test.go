package core

import (
	"bytes"
	"testing"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// TestDecodeIntoDirtyStorage: the decoders fill records and tokens from
// the codec's pools, which hold whatever was recycled, and must
// overwrite every field and list whatever that storage held: a record
// stale beyond its lists' lengths (recycle truncates and clears the
// pointers, nothing more), a token stale within its lengths and beyond.
// The pools are seeded with such records and tokens before every
// decode; each LASS sample, decoded as a snapshot and through a delta
// stream (a full snapshot, then a delta), must encode again to the
// sample's own bytes.
func TestDecodeIntoDirtyStorage(t *testing.T) {
	seed := func() {
		for i := 0; i < 4; i++ {
			recycle(dirtyBatch())
			tokenPool.Put(dirtyToken(6))
			tokenPool.Put(dirtyToken(2)) // stamp vectors too short to reuse
		}
	}
	reencode := func(t *testing.T, m network.Message, want []byte) {
		t.Helper()
		got, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded into stale storage, a %s encodes as\n%x\nwant %x", m.Kind(), got, want)
		}
	}
	enc, dec := wire.NewStream(), wire.NewStream()
	for i, m := range codecSamples() {
		want, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		seed()
		got, err := wire.Decode(want)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		reencode(t, got, want)
		for round := 0; round < 2; round++ {
			frame, err := wire.AppendStream(nil, m, enc)
			if err != nil {
				t.Fatal(err)
			}
			seed()
			got, err := wire.DecodeStream(frame, 0, 0, dec)
			if err != nil {
				t.Fatalf("sample %d, round %d through the stream: %v", i, round, err)
			}
			reencode(t, got, want)
		}
	}
}

// dirtyBatch is a record full of stale entries.
func dirtyBatch() *batch {
	b := newBatch()
	b.Visited = append(b.Visited, 5, 6, 7)
	b.Reqs = append(b.Reqs, request{Kind: reqLoan, R: 6, Init: 3, ID: 11, Mark: 4})
	b.Missing = append(b.Missing, resource.FromIDs(8, 6))
	b.Counters = append(b.Counters, counterVal{R: 5, Val: 40, ID: 2})
	b.Tokens = append(b.Tokens, dirtyToken(6))
	b.Holdings = append(b.Holdings, holding{R: 2, H: 3, V: tokVer{Epoch: 4, Ver: 9}})
	return b
}

// dirtyToken is a token of n sites whose every field is stale, with
// stale queue and loan entries within its lists' lengths and beyond.
func dirtyToken(n int) *token {
	t := newToken(7, n)
	t.Counter, t.Lender, t.Epoch, t.Ver = 99, 5, 3, 8
	for i := range t.LastReqC {
		t.LastReqC[i], t.LastCS[i] = 77, 78
	}
	for i := 0; i < 6; i++ {
		t.Queue = append(t.Queue, reqRef{Site: network.NodeID(i), ID: 50, Mark: 9})
		t.Loans = append(t.Loans, loanEntry{Ref: reqRef{Site: 1, ID: 51}, R: 6, Missing: resource.FromIDs(8, 6)})
	}
	t.Queue, t.Loans = t.Queue[:2], t.Loans[:1]
	return t
}
