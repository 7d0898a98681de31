package wire_test

import (
	"bytes"
	"net"
	"testing"

	"mralloc/internal/wire"
)

// written is a sink that announces each write it receives.
type written chan struct{}

func (w written) Write(p []byte) (int, error) {
	w <- struct{}{}
	return len(p), nil
}

// TestOwnedFrameEgressAllocs pins the frame path under every direct
// encoder (serve's hand-written Client.Acquire/Grant/Release, the peer
// transport's Send): a pooled buffer, a payload appended from
// FrameDataOff, AppendOwned — written out alone, one frame per flush —
// allocates nothing once the pool is warm, and neither does reading
// the frames back.
func TestOwnedFrameEgressAllocs(t *testing.T) {
	sink := make(written)
	co := wire.NewCoalescer(sink, 0, func(err error) { t.Error(err) })
	defer co.Close()
	payload := []byte("one small frame")
	send := func() {
		frame := append(wire.GetFrame(128)[:wire.FrameDataOff], payload...)
		if !co.AppendOwned(frame, wire.FinishFrame(frame)) {
			t.Fatal("coalescer refused a frame")
		}
		<-sink // one frame, one write; the flusher then returns the buffer to the pool
	}
	if got := testing.AllocsPerRun(500, send); got != 0 {
		t.Errorf("%v allocs per owned frame, want 0", got)
	}

	var stream []byte
	for i := 0; i < 501; i++ {
		stream = wire.AppendFrame(stream, payload)
	}
	fr := wire.NewFrameReader(bytes.NewReader(stream), 1<<20)
	if got := testing.AllocsPerRun(500, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("%v allocs per frame read, want 0", got)
	}
}

// TestVectoredFlushAllocs pins the other way out of a Coalescer: several
// frames leaving in one batch envelope through a socket's writev, which
// is every flush of a busy peer link. Two frames are queued before the
// flusher can run (AllocsPerRun measures on one P, and a flusher woken
// early yields until the queue stops growing), go out as one vectored
// write over loopback TCP and are read back; none of it allocates.
func TestVectoredFlushAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	co := wire.NewCoalescer(out, 2, func(err error) { t.Error(err) })
	defer co.Close()
	fr := wire.NewFrameReader(in, 1<<20)
	payload := []byte("one small frame")
	send := func() {
		for i := 0; i < 2; i++ {
			frame := append(wire.GetFrame(128)[:wire.FrameDataOff], payload...)
			if !co.AppendOwned(frame, wire.FinishFrame(frame)) {
				t.Fatal("coalescer refused a frame")
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := testing.AllocsPerRun(500, send)
	if st := co.Stats(); st.Batches != st.Flushes || st.Writes != st.Flushes || st.Frames != 2*st.Flushes {
		t.Fatalf("not every flush was one two-frame writev: %+v", st)
	}
	if got != 0 {
		t.Errorf("%v allocs per two-frame vectored flush, want 0", got)
	}
}
