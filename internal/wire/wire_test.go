package wire_test

import (
	"bytes"
	"math"
	"testing"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"

	// Each protocol package registers its message codecs in init; the
	// serve package registers the client-facing kinds and the transport
	// package its reliable-delivery envelope kinds the same way.
	_ "mralloc/internal/bouabdallah"
	_ "mralloc/internal/core"
	_ "mralloc/internal/incremental"
	_ "mralloc/internal/serve"
	_ "mralloc/internal/transport"
)

// expectedKinds is every message kind that can cross a live-cluster
// wire. The test pins the list so that adding a message type without a
// codec (or a codec without samples) fails loudly here rather than at
// runtime in a TCP cluster.
var expectedKinds = []string{
	"BL.CTRequest", "BL.CTToken", "BL.Inquire", "BL.ResToken",
	"Client.Acquire", "Client.Deny", "Client.Grant", "Client.Release",
	"Inc.Request", "Inc.Token",
	"LASS.HB", "LASS.Lease", "LASS.Regen", "LASS.Request", "LASS.Response",
	"Rel.Ack", "Rel.Data",
}

func TestAllProtocolKindsRegistered(t *testing.T) {
	for _, k := range expectedKinds {
		if !wire.Registered(k) {
			t.Errorf("kind %q has no codec", k)
		}
	}
}

// TestSamplesCoverAllKinds: the shared corpus must exercise every
// registered kind — it seeds the fuzzers and drives the round-trip
// test, so a kind without samples is a kind without coverage.
func TestSamplesCoverAllKinds(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range wire.Samples() {
		seen[m.Kind()] = true
	}
	for _, k := range wire.Kinds() {
		if !seen[k] {
			t.Errorf("no sample message for registered kind %q", k)
		}
	}
}

// TestRoundTripStability: encode→decode→re-encode must be the identity
// on encoded bytes for every sample of every kind.
func TestRoundTripStability(t *testing.T) {
	for i, m := range wire.Samples() {
		b1, err := wire.Append(nil, m)
		if err != nil {
			t.Fatalf("sample %d (%s): encode: %v", i, m.Kind(), err)
		}
		m2, err := wire.Decode(b1)
		if err != nil {
			t.Fatalf("sample %d (%s): decode: %v", i, m.Kind(), err)
		}
		if m2.Kind() != m.Kind() {
			t.Fatalf("sample %d: kind %q decoded as %q", i, m.Kind(), m2.Kind())
		}
		b2, err := wire.Append(nil, m2)
		if err != nil {
			t.Fatalf("sample %d (%s): re-encode: %v", i, m.Kind(), err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("sample %d (%s): re-encode differs\n  b1=%x\n  b2=%x", i, m.Kind(), b1, b2)
		}
	}
}

// TestTruncationsError: every strict prefix of a valid encoding must
// decode to an error — never a panic, never a bogus success.
func TestTruncationsError(t *testing.T) {
	for i, m := range wire.Samples() {
		b, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := wire.Decode(b[:cut]); err == nil {
				t.Fatalf("sample %d (%s): prefix of %d/%d bytes decoded without error",
					i, m.Kind(), cut, len(b))
			}
		}
	}
}

func TestTrailingBytesError(t *testing.T) {
	b, err := wire.Append(nil, wire.Samples()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Decode(append(b, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestShapeValidation: DecodeFor must reject frames whose site ids,
// resource ids, set universes or per-site vector lengths do not fit
// the declared cluster shape — those are exactly the frames that would
// otherwise crash a protocol state machine on a bad index.
func TestShapeValidation(t *testing.T) {
	sampleOf := func(kind string) []byte {
		t.Helper()
		for _, m := range wire.Samples() {
			if m.Kind() != kind {
				continue
			}
			b, err := wire.Append(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		t.Fatalf("no sample of kind %q", kind)
		return nil
	}

	// The first LASS.Request sample carries sites up to 2 and a
	// universe-8 missing set: it fits a (4, 8) cluster exactly...
	req := sampleOf("LASS.Request")
	if _, err := wire.DecodeFor(req, 4, 8); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
	// ...and must be rejected by shapes that cannot hold it.
	if _, err := wire.DecodeFor(req, 2, 8); err == nil {
		t.Error("site id 2 accepted in a 2-node cluster")
	}
	if _, err := wire.DecodeFor(req, 8, 4); err == nil {
		t.Error("universe-8 missing set accepted in a 4-resource cluster")
	}

	// The LASS.Response sample carries 4-entry token stamp vectors:
	// exactly a 4-node cluster, nothing else — those vectors are
	// indexed by site id on arrival.
	resp := sampleOf("LASS.Response")
	if _, err := wire.DecodeFor(resp, 4, 8); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
	if _, err := wire.DecodeFor(resp, 8, 8); err == nil {
		t.Error("4-site stamp vectors accepted in an 8-node cluster")
	}

	// The control token carries one entry per resource (6 here).
	ct := sampleOf("BL.CTToken")
	if _, err := wire.DecodeFor(ct, 6, 6); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
	if _, err := wire.DecodeFor(ct, 6, 8); err == nil {
		t.Error("6-entry control token accepted in an 8-resource cluster")
	}
}

type unknownMsg struct{}

func (unknownMsg) Kind() string { return "Test.Unregistered" }

func TestUnknownKind(t *testing.T) {
	if _, err := wire.Append(nil, unknownMsg{}); err == nil {
		t.Fatal("encoding an unregistered kind succeeded")
	}
	var e wire.Enc
	e.String("Test.Unregistered")
	if _, err := wire.Decode(e.Bytes()); err == nil {
		t.Fatal("decoding an unregistered kind succeeded")
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var e wire.Enc
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Varint(-1)
	e.Varint(math.MaxInt64)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Inf(-1))
	e.F64(1.5)
	e.String("héllo")
	e.Node(network.None)
	e.Nodes([]network.NodeID{3, 1, 4})
	e.Int64s([]int64{-7, 0, 9})
	e.Set(resource.FromIDs(130, 0, 63, 64, 129))
	e.Set(resource.Set{})

	d := wire.NewDec(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint: %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint: %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("varint: %d", got)
	}
	if got := d.Varint(); got != math.MaxInt64 {
		t.Errorf("varint: %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools")
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("f64: %v", got)
	}
	if got := d.F64(); got != 1.5 {
		t.Errorf("f64: %v", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("string: %q", got)
	}
	if got := d.Node(); got != network.None {
		t.Errorf("node: %v", got)
	}
	if n := d.Count(); n != 3 {
		t.Errorf("nodes: %d of them", n)
	}
	if a, b, c := d.Site(), d.Site(), d.Site(); a != 3 || b != 1 || c != 4 {
		t.Errorf("nodes: %v %v %v", a, b, c)
	}
	if got := d.Int64s(); len(got) != 3 || got[0] != -7 || got[2] != 9 {
		t.Errorf("int64s: %v", got)
	}
	s := d.Set()
	if s.Universe() != 130 || s.Len() != 4 || !s.Has(129) || !s.Has(0) {
		t.Errorf("set: %v over %d", s, s.Universe())
	}
	if s2 := d.Set(); s2.Universe() != 0 || s2.Len() != 0 {
		t.Errorf("zero set: %v over %d", s2, s2.Universe())
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

// TestSetDecodeRejections: the set decoder must reject universes past
// the cap, members outside the universe, and non-ascending members.
func TestSetDecodeRejections(t *testing.T) {
	cases := map[string]func(e *wire.Enc){
		"huge universe": func(e *wire.Enc) {
			e.Uvarint(wire.MaxUniverse + 1)
			e.Uvarint(0)
		},
		"member outside universe": func(e *wire.Enc) {
			e.Uvarint(4)
			e.Uvarint(1)
			e.Uvarint(9)
		},
		"more members than universe": func(e *wire.Enc) {
			e.Uvarint(2)
			e.Uvarint(3)
			e.Uvarint(0)
			e.Uvarint(1)
			e.Uvarint(1)
		},
		"duplicate member": func(e *wire.Enc) {
			e.Uvarint(8)
			e.Uvarint(2)
			e.Uvarint(3)
			e.Uvarint(0)
		},
	}
	for name, build := range cases {
		var e wire.Enc
		build(&e)
		d := wire.NewDec(e.Bytes())
		d.Set()
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAllocationBudget: a tiny frame must not be able to demand huge
// slices, even when its length fields are individually plausible.
func TestAllocationBudget(t *testing.T) {
	var e wire.Enc
	e.Uvarint(wire.MaxUniverse) // a maximal universe from a few bytes
	e.Uvarint(0)
	d := wire.NewDec(e.Bytes())
	d.Set()
	if d.Err() == nil {
		t.Fatal("128KB bitset allocated from a 5-byte frame")
	}
}

// TestElementCountBudget: a frame whose element count is bounded by
// its own byte length must still be charged for the decoded element
// size, which is 10-100x larger than the encoded byte — otherwise a
// 64KB frame could demand a multi-MB preallocation.
func TestElementCountBudget(t *testing.T) {
	const claimed = 1 << 16
	var e wire.Enc
	e.String("LASS.Request")
	e.Uvarint(0)       // no visited sites
	e.Uvarint(claimed) // an enormous request count...
	pad := make([]byte, claimed)
	for i := range pad {
		pad[i] = 0xff // ...backed by padding, not by valid requests
	}
	if _, err := wire.Decode(append(e.Bytes(), pad...)); err == nil {
		t.Fatal("64K-element claim decoded without error")
	}
}

// TestLoanWithoutMissingRejected: a loan request must carry a real
// missing set — the zero-universe zero value would panic the token
// holder's set algebra, which is exactly what shape validation is
// supposed to prevent.
func TestLoanWithoutMissingRejected(t *testing.T) {
	var e wire.Enc
	e.String("LASS.Request")
	e.Uvarint(0) // visited
	e.Uvarint(1) // one request
	e.Uvarint(2) // reqLoan
	e.Varint(3)  // R
	e.Varint(1)  // Init
	e.Varint(5)  // ID
	e.F64(1.5)   // Mark
	e.Uvarint(0) // Missing: universe 0...
	e.Uvarint(0) // ...no members (the zero value)
	e.Bool(false)
	if _, err := wire.Decode(e.Bytes()); err == nil {
		t.Fatal("loan request with a zero-value missing set decoded")
	}
}
