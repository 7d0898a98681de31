package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"mralloc/internal/wire"
)

// collect reads every frame from one encoded stream, copying each (the
// reader reuses its buffer).
func collect(t *testing.T, stream []byte, max uint64) ([][]byte, error) {
	t.Helper()
	fr := wire.NewFrameReader(bytes.NewReader(stream), max)
	var out [][]byte
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), f...))
	}
}

func TestFrameReaderMixedSinglesAndBatches(t *testing.T) {
	payloads := [][]byte{
		[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd"), []byte("e"),
	}
	// Stream: single, batch(bb ccc), single, then a batch of one... a
	// batch envelope requires ≥2 frames only by writer convention; the
	// reader accepts one-frame envelopes, so include one.
	var body []byte
	body = wire.AppendFrame(body, payloads[1])
	body = wire.AppendFrame(body, payloads[2])
	var stream []byte
	stream = wire.AppendFrame(stream, payloads[0])
	stream = wire.AppendBatch(stream, body)
	stream = wire.AppendFrame(stream, payloads[3])
	stream = wire.AppendBatch(stream, wire.AppendFrame(nil, payloads[4]))

	got, err := collect(t, stream, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d frames, want %d", len(got), len(payloads))
	}
	for i, want := range payloads {
		if !bytes.Equal(got[i], want) {
			t.Errorf("frame %d = %q, want %q (order across batch boundaries must hold)", i, got[i], want)
		}
	}
}

func TestFrameReaderRejectsMalformedEnvelopes(t *testing.T) {
	frame := wire.AppendFrame(nil, []byte("xy"))
	cases := []struct {
		name   string
		stream []byte
	}{
		{"bare control marker (truncated control)", []byte{0, 0}},
		{"control payload over limit", wire.AppendControl(nil, 1, make([]byte, 4096))},
		{"empty frame in envelope", append([]byte{0, 1}, 0)},
		{"nested marker", func() []byte {
			// An envelope whose body starts with another batch marker:
			// the zero prefix reads as an empty frame.
			inner := wire.AppendBatch(nil, frame)
			return wire.AppendBatch(nil, inner)
		}()},
		{"frame overruns envelope", func() []byte {
			// Envelope claims 2 bytes but the frame inside needs 3.
			s := []byte{0, 2}
			return append(s, frame...)
		}()},
		{"truncated envelope header", []byte{0}},
		{"truncated envelope body", wire.AppendBatch(nil, frame)[:3]},
		{"oversized frame", wire.AppendFrame(nil, make([]byte, 2000))},
		{"oversized envelope", wire.AppendBatch(nil, wire.AppendFrame(nil, make([]byte, 2000)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := collect(t, tc.stream, 1000); err == nil {
				t.Fatalf("stream %x accepted", tc.stream)
			}
		})
	}
}

func TestFrameReaderCleanVsTruncatedEOF(t *testing.T) {
	stream := wire.AppendFrame(nil, []byte("hello"))
	// Clean boundary → io.EOF.
	fr := wire.NewFrameReader(bytes.NewReader(stream), 1<<10)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}
	// Mid-frame truncation → ErrUnexpectedEOF.
	fr = wire.NewFrameReader(bytes.NewReader(stream[:len(stream)-2]), 1<<10)
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame = %v, want ErrUnexpectedEOF", err)
	}
}

// TestFrameReaderAcceptsLegacyStream: a stream of only single frames
// (what a pre-batching writer emits) must read byte-for-byte.
func TestFrameReaderAcceptsLegacyStream(t *testing.T) {
	var stream []byte
	var want [][]byte
	for _, m := range wire.Samples() {
		b, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		stream = wire.AppendFrame(stream, b)
		want = append(want, b)
	}
	got, err := collect(t, stream, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d differs", i)
		}
	}
}

// appendAll drives a coalescer with the given payloads and closes it.
func appendAll(t *testing.T, co *wire.Coalescer, payloads [][]byte) {
	t.Helper()
	for _, p := range payloads {
		if !co.Append(p) {
			t.Fatal("Append refused before close")
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescerStreamDecodesInOrder(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 300; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("payload-%03d", i)))
	}
	var sink bytes.Buffer
	co := wire.NewCoalescer(&sink, 0, nil)
	appendAll(t, co, payloads)

	got, err := collect(t, sink.Bytes(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	st := co.Stats()
	if st.Frames != int64(len(payloads)) {
		t.Errorf("stats.Frames = %d, want %d", st.Frames, len(payloads))
	}
	if st.Bytes != int64(sink.Len()) {
		t.Errorf("stats.Bytes = %d, sink has %d", st.Bytes, sink.Len())
	}
	if st.Flushes < 1 || st.Writes < st.Flushes {
		t.Errorf("implausible stats %+v", st)
	}
}

// TestCoalescerMaxFramesOne: the no-batching mode must emit a pure
// legacy stream — no envelope markers — one flush per frame.
func TestCoalescerMaxFramesOne(t *testing.T) {
	payloads := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	var sink bytes.Buffer
	co := wire.NewCoalescer(&sink, 1, nil)
	appendAll(t, co, payloads)
	var want []byte
	for _, p := range payloads {
		want = wire.AppendFrame(want, p)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("stream %x, want legacy %x", sink.Bytes(), want)
	}
	st := co.Stats()
	if st.Batches != 0 || st.Frames != 3 || st.Flushes != 3 {
		t.Fatalf("no-batching stats %+v", st)
	}
}

// shortWriter writes at most k bytes per call and (wrongly) reports no
// error on the short write — the io.Writer contract violation the
// coalescer must tolerate rather than silently drop a suffix.
type shortWriter struct {
	k    int
	sink bytes.Buffer
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.k {
		p = p[:w.k]
	}
	return w.sink.Write(p)
}

func TestCoalescerToleratesShortWrites(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 40; i++ {
		payloads = append(payloads, bytes.Repeat([]byte{byte(i)}, 50+i))
	}
	w := &shortWriter{k: 7}
	co := wire.NewCoalescer(w, 0, nil)
	appendAll(t, co, payloads)
	got, err := collect(t, w.sink.Bytes(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("frame %d corrupted across short writes", i)
		}
	}
}

// errWriter fails after accepting n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("boom")
	}
	k := len(p)
	if k > w.n {
		k = w.n
	}
	w.n -= k
	if k < len(p) {
		return k, errors.New("boom")
	}
	return k, nil
}

func TestCoalescerReportsWriteError(t *testing.T) {
	errc := make(chan error, 1)
	co := wire.NewCoalescer(&errWriter{n: 3}, 0, func(err error) { errc <- err })
	co.Append(bytes.Repeat([]byte{1}, 100))
	if err := <-errc; err == nil {
		t.Fatal("onErr not called")
	}
	if err := co.Close(); err == nil {
		t.Fatal("Close reported no error")
	}
	if co.Append([]byte{2}) {
		t.Fatal("Append accepted after failure")
	}
}

func TestCoalescerConcurrentAppends(t *testing.T) {
	var sink bytes.Buffer
	var mu sync.Mutex
	lockedSink := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sink.Write(p)
	})
	co := wire.NewCoalescer(lockedSink, 0, nil)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				co.Append([]byte(fmt.Sprintf("w%d-%04d", w, i)))
			}
		}()
	}
	wg.Wait()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	stream := append([]byte(nil), sink.Bytes()...)
	mu.Unlock()
	got, err := collect(t, stream, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per {
		t.Fatalf("decoded %d frames, want %d", len(got), workers*per)
	}
	// Per-worker order must hold (append order is frame order).
	next := make([]int, workers)
	for _, f := range got {
		var w, i int
		if _, err := fmt.Sscanf(string(f), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad frame %q", f)
		}
		if i != next[w] {
			t.Fatalf("worker %d frame %d arrived, want %d (reordered)", w, i, next[w])
		}
		next[w]++
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestGetReleaseFrame(t *testing.T) {
	b := wire.GetFrame(10)
	if len(b) != 0 || cap(b) < 10 {
		t.Fatalf("GetFrame: len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	wire.ReleaseFrame(b)
	c := wire.GetFrame(1)
	if len(c) != 0 {
		t.Fatalf("recycled buffer not empty: len=%d", len(c))
	}
}

// TestFrameReaderStreamControls: controls belong to the handshake. Once
// a FrameReader runs, a control marker — code 1, which the previous
// protocol version announced deltas with, a code no build knows, a
// second hello — fails the stream with ErrControl wherever it sits
// between elements: the frames ahead of it are delivered, nothing behind
// it is.
func TestFrameReaderStreamControls(t *testing.T) {
	hello := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
	batch := wire.AppendBatch(nil, wire.AppendFrame(wire.AppendFrame(nil, []byte("bb")), []byte("cc")))
	for _, tc := range []struct {
		name      string
		head, ctl []byte
		frames    int
	}{
		{"first element", nil, wire.AppendControl(nil, 1, nil), 0},
		{"after a frame", wire.AppendFrame(nil, []byte("aa")), wire.AppendControl(nil, 9, []byte{1, 2}), 1},
		{"second hello after an envelope", batch, hello, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := append(append([]byte(nil), tc.head...), tc.ctl...)
			stream = wire.AppendFrame(stream, []byte("zz"))
			got, err := collect(t, stream, 1<<16)
			if !errors.Is(err, wire.ErrControl) {
				t.Fatalf("stream ended with %v, want ErrControl", err)
			}
			if len(got) != tc.frames {
				t.Fatalf("%d frames delivered ahead of the control, want %d: %q", len(got), tc.frames, got)
			}
		})
	}
}
