package wire_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/wire"
)

// gateWriter blocks every Write until released, counting bytes that do
// get through — a stand-in for a peer that stops reading.
type gateWriter struct {
	mu       sync.Mutex
	released bool
	cond     *sync.Cond
	written  atomic.Int64
}

func newGateWriter() *gateWriter {
	g := &gateWriter{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	for !g.released {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.written.Add(int64(len(p)))
	return len(p), nil
}

func (g *gateWriter) release() {
	g.mu.Lock()
	g.released = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// TestByteBudgetBoundsQueue is the deterministic stalled-peer test:
// with the writer wedged, appenders must block once the budget fills,
// queued bytes must stay under budget + one frame, and releasing the
// writer must drain everything.
func TestByteBudgetBoundsQueue(t *testing.T) {
	const budget = 4096
	const frameLen = 256
	const frames = 100 // 100 × ~257B ≫ budget: pre-budget behavior grows unboundedly

	g := newGateWriter()
	co := wire.NewCoalescer(g, 0, nil)
	co.SetByteBudget(budget)

	var appended atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := make([]byte, frameLen)
		for i := 0; i < frames; i++ {
			if !co.Append(payload) {
				return
			}
			appended.Add(1)
		}
	}()

	// The appender must wedge with the queue bounded: strictly fewer
	// than the full workload admitted, and never more than budget plus
	// one frame's worth of bytes queued.
	eventually(t, "appender blocked on the budget", func() bool {
		n := appended.Load()
		return n > 0 && n < frames && co.QueuedBytes() >= budget-2*frameLen
	})
	// Hold the stall a moment and confirm the bound is respected.
	for i := 0; i < 20; i++ {
		if q := co.QueuedBytes(); q > budget+frameLen+16 {
			t.Fatalf("queued %d bytes exceeds budget %d + one frame", q, budget)
		}
		time.Sleep(time.Millisecond)
	}
	if appended.Load() >= frames {
		t.Fatal("appender never blocked: budget not enforced")
	}
	if co.Stats().Stalls == 0 {
		t.Fatal("no stalls recorded")
	}

	// The peer recovers: everything drains and the appender completes.
	g.release()
	<-done
	if got := appended.Load(); got != frames {
		t.Fatalf("appended %d frames, want %d", got, frames)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if st := co.Stats(); st.Frames != frames {
		t.Fatalf("wrote %d frames, want %d", st.Frames, frames)
	}
	if co.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d bytes", co.QueuedBytes())
	}
}

// TestCloseUnblocksBudgetedAppender: Close must wake an appender
// blocked on the budget (it then reports refusal), never deadlock.
func TestCloseUnblocksBudgetedAppender(t *testing.T) {
	g := newGateWriter()
	co := wire.NewCoalescer(g, 0, nil)
	co.SetByteBudget(512)

	refused := make(chan bool, 1)
	go func() {
		payload := make([]byte, 256)
		for {
			if !co.Append(payload) {
				refused <- true
				return
			}
		}
	}()
	eventually(t, "appender wedged", func() bool { return co.QueuedBytes() >= 256 })
	g.release() // let Close's final flush through
	go co.Close()
	select {
	case <-refused:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the appender blocked on the budget")
	}
}
