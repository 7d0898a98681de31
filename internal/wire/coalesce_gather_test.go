package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
)

// The drain-then-flush rule (Coalescer.gather) is a scheduling rule, so
// these tests pin it on one P, where the scheduler's order is the
// run-queue order and nothing depends on the clock: what one yield
// gathers, what a lone appender pays, where the wait ends under a
// producer that never stops, and that close and write errors drain and
// release as they did before the rule.

// recSink records what each write call carried. It takes vectored
// writes whole (VectorWriter), so one recorded entry is one write as a
// socket would see it, whatever the number of frames inside.
type recSink struct {
	mu     sync.Mutex
	writes [][]byte
	wrote  chan struct{} // one token per write call; nil = not signalled
	fail   error         // returned (with nothing written) by every call
}

func (s *recSink) Write(p []byte) (int, error) { return s.WriteVec([][]byte{p}) }

func (s *recSink) WriteVec(bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return 0, s.fail
	}
	var w []byte
	for _, b := range bufs {
		w = append(w, b...)
	}
	s.writes = append(s.writes, w)
	if s.wrote != nil {
		s.wrote <- struct{}{}
	}
	return len(w), nil
}

// frames decodes the payloads of the recorded write calls, one slice of
// payloads per call.
func (s *recSink) frames(t *testing.T) [][][]byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][][]byte, len(s.writes))
	for i, w := range s.writes {
		fr := NewFrameReader(bytes.NewReader(w), 1<<16)
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("write %d does not hold whole frames: %v", i, err)
			}
			out[i] = append(out[i], append([]byte(nil), f...))
		}
	}
	return out
}

// closeTestDeadline is far beyond any healthy drain: CloseWithin must
// return because the flusher exited, never because this ran out.
const closeTestDeadline = 10 * time.Second

// oneP runs the rest of the test on a single P.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestGatherOneWritePerWave: k goroutines runnable at once, one frame
// each. The first append wakes the flusher; without the yield it wrote
// that frame alone and was woken again per appender (k writes). With
// it, the appenders that were already runnable get in first: strictly
// fewer writes than frames, in append order. A bound of one frame per
// flush is honoured, not waited on.
func TestGatherOneWritePerWave(t *testing.T) {
	const k = 16
	for _, tc := range []struct {
		name      string
		maxFrames int
	}{{"unbounded", 0}, {"maxFrames1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			oneP(t)
			sink := &recSink{}
			co := NewCoalescer(sink, tc.maxFrames, nil)
			start := make(chan struct{})
			var (
				wg    sync.WaitGroup
				mu    sync.Mutex // makes "append order" observable
				order []byte
			)
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i byte) {
					defer wg.Done()
					<-start
					mu.Lock()
					order = append(order, i)
					co.Append([]byte{i})
					mu.Unlock()
				}(byte(i))
			}
			close(start)
			wg.Wait()
			if err := co.Close(); err != nil {
				t.Fatal(err)
			}
			var got []byte
			writes := sink.frames(t)
			for _, w := range writes {
				for _, f := range w {
					got = append(got, f[0])
				}
			}
			if !bytes.Equal(got, order) {
				t.Fatalf("frames left in order %v, appended in order %v", got, order)
			}
			st := co.Stats()
			if st.Frames != k || int(st.Writes) != len(writes) {
				t.Fatalf("stats %+v against %d recorded writes of %d frames", st, len(writes), k)
			}
			if tc.maxFrames == 1 {
				if st.Writes != k || st.Batches != 0 {
					t.Fatalf("maxFrames=1 must stay one frame per write: %+v", st)
				}
				return
			}
			if st.Writes >= k {
				t.Fatalf("%d writes for %d frames appended in one scheduling wave: the flusher did not gather", st.Writes, k)
			}
		})
	}
}

// TestGatherLoneAppenderUnaffected: with nothing else runnable the
// yield returns at once and finds the queue as it left it, so an
// appender that waits for each write gets one write per frame and no
// frame waits for a second one. No timer is involved: the test waits on
// the writes themselves and reads the outcome from the counters.
func TestGatherLoneAppenderUnaffected(t *testing.T) {
	oneP(t)
	const k = 50
	sink := &recSink{wrote: make(chan struct{}, k)}
	co := NewCoalescer(sink, 0, nil)
	for i := 0; i < k; i++ {
		if !co.Append([]byte{byte(i)}) {
			t.Fatal("Append refused")
		}
		<-sink.wrote
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	st := co.Stats()
	if st.Writes != k || st.Flushes != k || st.Frames != k || st.Batches != 0 {
		t.Fatalf("lone appender: %+v, want %d single-frame writes", st, k)
	}
}

// TestGatherBoundedUnderSteadyProducer: a producer that appends every
// time it is scheduled, until it sees a write. Every yield of the
// flusher finds the queue grown, so only the round bound ends the wait:
// the write leaves after gatherRounds yields, carrying the wake-up
// frame plus one per yield — not when the producer gives up.
func TestGatherBoundedUnderSteadyProducer(t *testing.T) {
	oneP(t)
	const giveUp = 100000
	sink := &recSink{wrote: make(chan struct{}, giveUp)}
	co := NewCoalescer(sink, 0, nil)
	// One frame through first, so the flusher is parked on an empty
	// queue (not still starting up) when the producer's first append
	// wakes it.
	co.Append([]byte{0})
	<-sink.wrote
	runtime.Gosched()
	appended := make(chan int)
	go func() {
		n := 0
		for ; n < giveUp && len(sink.wrote) == 0; n++ {
			co.Append([]byte{byte(n)})
			runtime.Gosched()
		}
		appended <- n
	}()
	n := <-appended
	if n == giveUp {
		t.Fatalf("no write while the producer appended %d frames: the flusher was starved", n)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	// One frame of slack: every 61st scheduling decision takes from the
	// global run queue first, which can give the producer two turns in
	// a row, and the dozen decisions of this exchange meet that tick at
	// most once.
	if got := len(sink.frames(t)[1]); got > gatherRounds+2 {
		t.Fatalf("the write carried %d frames, the bound allows %d (%d yields)", got, gatherRounds+1, gatherRounds)
	}
}

// TestGatherCloseDrainsPromptly: Close while the flusher is yielding
// for more frames. The wait ends there, everything queued leaves in
// one flush, and the goroutine exits (Close and CloseWithin both).
func TestGatherCloseDrainsPromptly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(*Coalescer) error
	}{
		{"Close", (*Coalescer).Close},
		{"CloseWithin", func(c *Coalescer) error { return c.CloseWithin(closeTestDeadline) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oneP(t)
			check := leakcheck.Check(t)
			sink := &recSink{}
			co := NewCoalescer(sink, 0, nil)
			co.Append([]byte{1})
			runtime.Gosched() // the flusher wakes, sees one frame, yields back
			co.Append([]byte{2})
			if err := tc.close(co); err != nil {
				t.Fatal(err)
			}
			st := co.Stats()
			if st.Frames != 2 || st.Flushes != 1 {
				t.Fatalf("close mid-gather: %+v, want both frames in one flush", st)
			}
			if co.QueuedBytes() != 0 {
				t.Fatalf("%d bytes still queued after close", co.QueuedBytes())
			}
			check()
		})
	}
}

// TestGatherWriteErrorReleases: the write after a gather fails. The
// error is reported once, the frames gathered and the ones that raced
// in behind them are released (the budget holds nothing), later appends
// are refused, and the flusher is gone.
func TestGatherWriteErrorReleases(t *testing.T) {
	oneP(t)
	check := leakcheck.Check(t)
	boom := errors.New("boom")
	errc := make(chan error, 2)
	co := NewCoalescer(&recSink{fail: boom}, 0, func(err error) { errc <- err })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			co.Append([]byte{i})
		}(byte(i))
	}
	wg.Wait()
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("onErr got %v", err)
	}
	if co.Append([]byte{9}) {
		t.Fatal("Append accepted after the write failed")
	}
	if err := co.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if len(errc) != 0 {
		t.Fatal("onErr called twice")
	}
	if co.QueuedBytes() != 0 {
		t.Fatalf("%d bytes still charged to the budget after the failure", co.QueuedBytes())
	}
	check()
}
