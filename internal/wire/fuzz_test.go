package wire_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mralloc/internal/wire"
)

// seedCorpus returns the encodings of every registered sample message,
// which covers every registered kind (TestSamplesCoverAllKinds).
func seedCorpus(f *testing.F) {
	f.Helper()
	for _, m := range wire.Samples() {
		b, err := wire.Append(nil, m)
		if err != nil {
			f.Fatalf("encoding sample %s: %v", m.Kind(), err)
		}
		f.Add(b)
	}
}

// FuzzRoundTrip: any bytes that decode must re-encode canonically —
// decode→encode→decode→encode reaches a fixed point after one step.
func FuzzRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := wire.Decode(b)
		if err != nil {
			return
		}
		b2, err := wire.Append(nil, m)
		if err != nil {
			t.Fatalf("decoded %s but cannot re-encode: %v", m.Kind(), err)
		}
		m2, err := wire.Decode(b2)
		if err != nil {
			t.Fatalf("canonical re-encoding of %s does not decode: %v", m.Kind(), err)
		}
		if m2.Kind() != m.Kind() {
			t.Fatalf("kind changed across round trip: %q → %q", m.Kind(), m2.Kind())
		}
		b3, err := wire.Append(nil, m2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatalf("encode∘decode not idempotent for %s:\n  b2=%x\n  b3=%x", m.Kind(), b2, b3)
		}
	})
}

// FuzzBatchStream: arbitrary bytes fed to the batch-aware FrameReader
// must never panic and must terminate — every frame yielded before an
// error (or clean EOF) must itself be decodable or not, without
// crashing. Seeds cover single frames, batch envelopes of mixed kinds,
// an empty batch, a truncated envelope, and controls mid-stream. Those
// belong to the handshake: behind any stream that reads to a clean end, a
// control must fail the reader with ErrControl, after the same frames and
// ahead of anything that follows it.
func FuzzBatchStream(f *testing.F) {
	var all []byte
	var body []byte
	for _, m := range wire.Samples() {
		b, err := wire.Append(nil, m)
		if err != nil {
			f.Fatalf("encoding sample %s: %v", m.Kind(), err)
		}
		f.Add(wire.AppendFrame(nil, b)) // each kind as a single frame
		body = wire.AppendFrame(body, b)
		all = wire.AppendFrame(all, b)
	}
	batch := wire.AppendBatch(nil, body) // every kind in one envelope
	f.Add(batch)
	f.Add(all)                         // legacy stream of singles
	f.Add(batch[:len(batch)/2])        // truncated envelope
	f.Add([]byte{0, 0})                // empty batch
	f.Add(wire.AppendBatch(all, body)) // singles then a batch
	hello := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
	f.Add(append(append(append([]byte(nil), all...), hello...), all...))      // a second hello mid-stream
	f.Add(wire.AppendBatch(wire.AppendControl(batch, 9, []byte{1, 2}), body)) // an unknown control between envelopes
	tail := wire.AppendFrame(wire.AppendControl(nil, 1, nil), []byte("behind the control"))
	f.Fuzz(func(t *testing.T, b []byte) {
		// read drains one stream, reporting the frames it yielded and the
		// error that ended it.
		read := func(b []byte) (frames int, err error) {
			fr := wire.NewFrameReader(bytes.NewReader(b), 1<<16)
			for {
				frame, err := fr.Next()
				if err != nil {
					return frames, err
				}
				if len(frame) == 0 {
					t.Fatal("FrameReader yielded an empty frame")
				}
				// Whatever the frame holds, decoding must not panic.
				wire.Decode(frame)
				frames++
				if frames > len(b) {
					t.Fatalf("more frames (%d) than input bytes (%d)", frames, len(b))
				}
			}
		}
		frames, err := read(b)
		if err != io.EOF {
			return
		}
		got, err := read(append(append([]byte(nil), b...), tail...))
		if !errors.Is(err, wire.ErrControl) || got != frames {
			t.Fatalf("control behind %d clean frames: %d frames, then %v; want ErrControl", frames, got, err)
		}
	})
}

// FuzzDecode: arbitrary bytes must never panic the decoder — only
// decode or error. (A panic anywhere under Decode fails the fuzzer.)
func FuzzDecode(f *testing.F) {
	seedCorpus(f)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	good, err := wire.Append(nil, wire.Samples()[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := wire.Decode(b)
		if err == nil && m == nil {
			t.Fatal("nil message decoded without error")
		}
		// The decoder is pooled: the one that just ran (and maybe
		// failed, or ran up an allocation charge) serves the next
		// decodes. A sound frame must still decode after it, and the
		// same input must give the same result a second time.
		if _, err := wire.Decode(good); err != nil {
			t.Fatalf("a sound frame fails after this input: %v", err)
		}
		m2, err2 := wire.Decode(b)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("one input, two results: %v, then %v", err, err2)
		}
		if err == nil {
			e1, _ := wire.Append(nil, m)
			e2, _ := wire.Append(nil, m2)
			if !bytes.Equal(e1, e2) {
				t.Fatalf("one input, two messages:\n  %x\n  %x", e1, e2)
			}
		}
		// The shape-validating path must be equally panic-free, and
		// never accept what the unvalidated path rejects.
		m4, err4 := wire.DecodeFor(b, 4, 8)
		if err4 == nil && m4 == nil {
			t.Fatal("nil message decoded without error (shaped)")
		}
		if err != nil && err4 == nil {
			t.Fatalf("shaped decode accepted what plain decode rejected: %v", err)
		}
	})
}
