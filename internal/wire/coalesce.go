package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// Coalescer turns a stream of per-message frames into batched writes:
// senders append frames (cheap, never blocking on the network) and a
// dedicated flusher goroutine drains everything queued into one flush
// group — a single frame when one message is pending, a batch envelope
// when more are. The flusher drains-then-flushes: woken by the first
// frame, it yields the processor to the goroutines that are already
// runnable and takes the queue once it has stopped growing (gather), so
// one write carries a whole scheduling wave rather than its first
// frame. The wait is bounded in scheduler passes, not in time, and with
// nothing else runnable it is no wait at all: a lone frame leaves at
// once.
//
// Frames are held in the pooled buffers they were encoded into
// (AppendOwned transfers ownership; Append copies into one) and an
// envelope flush hands them to the connection as one vectored write
// (net.Buffers / writev) with the envelope header materialized
// in-place in the first frame's reserved prefix — no per-flush memcpy.
//
// One Coalescer serves one connection. Senders may call Append
// concurrently; frame order is append order, which is what preserves
// FIFO per ordered node pair end to end. Close flushes what is queued
// and waits for the flusher to exit — close the underlying writer
// first if it may block forever.
type Coalescer struct {
	w io.Writer
	// onErr, when non-nil, is called once (from the flusher goroutine,
	// no Coalescer lock held) with the first write error.
	onErr   func(error)
	mu      sync.Mutex
	nonIdle sync.Cond // signaled on empty→non-empty and on close
	pending []span    // queued frames, append order
	closed  bool
	err     error

	// Byte budget (SetByteBudget): appenders block while the queued
	// bytes would exceed it — the bound that keeps a stalled peer from
	// growing this queue without limit. room wakes them as the flusher
	// drains (and on close/error, so nobody blocks forever).
	budget       int64
	pendingBytes int64
	room         sync.Cond

	// maxFrames, when positive, bounds how many frames one flush may
	// write together (1: every frame its own write, which is how the
	// framing tests get deterministic groups). Fixed at construction.
	maxFrames int

	// spare is the flusher's drained span slice handed back for reuse;
	// vecBufs is the flusher's private flush scratch, and netBufs the
	// header net.Buffers consumes a socket write's share of it through
	// (WriteTo's receiver escapes: a local one is boxed per write).
	spare   []span
	vecBufs [][]byte
	netBufs net.Buffers

	stats CoalescerStats // guarded by mu

	done chan struct{} // closed when the flusher exits
}

// span is one queued frame: buf[off:] holds the complete frame
// (uvarint length prefix + payload) inside a pooled buffer that the
// flusher releases after the write. At least headerReserve writable
// bytes precede off, so an envelope flush can materialize its header
// right-aligned against the group's first frame and write with no
// copying.
type span struct {
	buf []byte
	off int
}

func (s span) frame() []byte { return s.buf[s.off:] }

// headerReserve is the room producers leave before a frame for the
// largest possible batch envelope header, so a flush can materialize
// the header in place and issue one contiguous (or vectored) write
// with no copying.
const headerReserve = 1 + binary.MaxVarintLen64

// FrameDataOff is where producers of owned frames must start appending
// their encoded payload into a pooled buffer (GetFrame): enough room
// is reserved before it for the frame's own length prefix
// (FinishFrame right-aligns it) and, when the frame opens a batch
// envelope, the envelope header.
const FrameDataOff = headerReserve + binary.MaxVarintLen64

// FinishFrame materializes the length prefix of a frame whose payload
// occupies buf[FrameDataOff:], right-aligned against the payload, and
// returns the offset where the finished frame starts — the off to hand
// to AppendOwned.
func FinishFrame(buf []byte) int {
	n := uint64(len(buf) - FrameDataOff)
	off := FrameDataOff - uvarintLen(n)
	binary.PutUvarint(buf[off:], n)
	return off
}

// VectorWriter is the writer-side hook for vectored egress: one call
// consumes one batch of buffers. Real sockets do not need it — the
// coalescer hands them net.Buffers (writev) directly — but conn
// wrappers and tests implement it to observe or perturb the vectored
// path. Like Write, a short count with a nil error is tolerated by the
// caller (the remainder is retried), never trusted.
type VectorWriter interface {
	WriteVec(bufs [][]byte) (int, error)
}

// CoalescerStats counts a coalescing writer's egress. Writes is the
// syscall proxy the benchmarks compare: how many Write (or vectored
// write) calls reached the underlying connection.
type CoalescerStats struct {
	Writes  int64 // write calls issued on the underlying writer
	Flushes int64 // flush groups (each one frame or one batch envelope)
	Batches int64 // flush groups that used a batch envelope (≥2 frames)
	Frames  int64 // frames written
	Bytes   int64 // bytes written, envelope headers included
	// Stalls counts backpressure events: appends that blocked on the
	// byte budget.
	Stalls int64
}

// Add accumulates o into s.
func (s *CoalescerStats) Add(o CoalescerStats) {
	s.Writes += o.Writes
	s.Flushes += o.Flushes
	s.Batches += o.Batches
	s.Frames += o.Frames
	s.Bytes += o.Bytes
	s.Stalls += o.Stalls
}

// NewCoalescer starts a coalescing writer over w. maxFrames bounds the
// frames per flush (0 = unbounded); onErr may be nil.
func NewCoalescer(w io.Writer, maxFrames int, onErr func(error)) *Coalescer {
	c := &Coalescer{w: w, onErr: onErr, maxFrames: maxFrames, done: make(chan struct{})}
	c.nonIdle.L = &c.mu
	c.room.L = &c.mu
	go c.flusher()
	return c
}

// SetByteBudget bounds the bytes queued behind the flusher (0, the
// default, is unbounded — the pre-flow-control behavior). An Append
// that would push the queue past the budget blocks until the flusher
// drains (or the coalescer closes or errors); a frame is always
// admitted into an empty queue, so the actual bound is budget plus one
// frame. This is the sender-side half of end-to-end flow control: a
// stalled peer costs bounded memory and blocked senders, never an OOM.
func (c *Coalescer) SetByteBudget(n int64) {
	c.mu.Lock()
	c.budget = n
	c.room.Broadcast()
	c.mu.Unlock()
}

// QueuedBytes reports the frame bytes currently queued behind the
// flusher (the quantity SetByteBudget bounds).
func (c *Coalescer) QueuedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingBytes
}

// Append queues one frame holding payload (the bytes are copied into a
// pooled buffer; the caller may recycle payload immediately). It
// reports false once the coalescer is closed or its connection has
// failed — the frame is then dropped, like a Send on a closed
// transport.
func (c *Coalescer) Append(payload []byte) bool {
	buf := GetFrame(headerReserve + binary.MaxVarintLen64 + len(payload))
	buf = buf[:headerReserve]
	buf = AppendFrame(buf, payload)
	return c.append(span{buf: buf, off: headerReserve})
}

// AppendOwned queues one finished frame, taking ownership of buf — a
// pooled buffer whose payload was appended from FrameDataOff and whose
// length prefix FinishFrame put at off. The coalescer releases buf to
// the frame pool after the write (or on refusal); the caller must not
// touch it again. This is the zero-copy egress path: the encoded bytes
// are written from this very buffer.
func (c *Coalescer) AppendOwned(buf []byte, off int) bool {
	if off < headerReserve || off >= len(buf) {
		panic(fmt.Sprintf("wire: AppendOwned offset %d outside [%d, %d)", off, headerReserve, len(buf)))
	}
	return c.append(span{buf: buf, off: off})
}

func (c *Coalescer) append(s span) bool {
	size := int64(len(s.frame()))
	c.mu.Lock()
	// Byte budget: block while admitting this frame would overflow it.
	// A frame is always admitted into an empty queue (otherwise a frame
	// larger than the budget could never move), so the bound is budget
	// plus one frame. Close and write errors wake every waiter.
	waited := false
	for c.budget > 0 && c.pendingBytes > 0 && c.pendingBytes+size > c.budget &&
		!c.closed && c.err == nil {
		if !waited {
			waited = true
			c.stats.Stalls++
		}
		c.room.Wait()
	}
	if c.closed || c.err != nil {
		c.mu.Unlock()
		ReleaseFrame(s.buf)
		return false
	}
	c.pending = append(c.pending, s)
	c.pendingBytes += size
	if len(c.pending) == 1 {
		// Only an empty→non-empty edge can find the flusher parked.
		c.nonIdle.Signal()
	}
	c.mu.Unlock()
	return true
}

// Err reports the first write error, or nil.
func (c *Coalescer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats snapshots the egress counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close flushes anything still queued, stops the flusher, and returns
// the first write error, if any. Idempotent.
//
// Close waits for the flusher to exit, so a flusher stuck in a Write
// that never returns blocks it forever — close the underlying
// connection first, set a write deadline on it, or use CloseWithin.
func (c *Coalescer) Close() error {
	c.beginClose()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ErrCloseTimeout reports a CloseWithin that gave up waiting for the
// flusher: the close is committed (no more frames will be accepted)
// but the flusher is still stuck in a write and frames may be lost
// when the connection dies.
var ErrCloseTimeout = errors.New("wire: coalescer close timed out awaiting flusher")

// CloseWithin is Close bounded by a deadline: it commits the close,
// then waits at most d for the flusher to drain and exit. On timeout
// it returns ErrCloseTimeout and abandons the flusher — which exits on
// its own as soon as its blocked write returns, releasing every queued
// frame either way. Callers tearing down a connection that may be
// wedged (a peer that stopped reading and ignores deadlines) use this
// so shutdown latency is bounded by d, not by the peer. d <= 0 waits
// forever, exactly like Close. Idempotent and safe to mix with Close.
func (c *Coalescer) CloseWithin(d time.Duration) error {
	c.beginClose()
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-c.done:
		case <-t.C:
			return ErrCloseTimeout
		}
	} else {
		<-c.done
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// beginClose commits the close: no more appends are accepted, the
// flusher is woken to drain what is queued, and everyone blocked on
// flow control is released.
func (c *Coalescer) beginClose() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.nonIdle.Signal()
		// Wake appenders blocked on the budget: a close must never
		// deadlock on flow control.
		c.room.Broadcast()
	}
	c.mu.Unlock()
}

// flusher is the write-side goroutine: each wakeup gathers, then takes
// the whole queue in one swap and writes it out in as few writes as the
// limits allow.
func (c *Coalescer) flusher() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && !c.closed {
			c.nonIdle.Wait()
		}
		if len(c.pending) == 0 { // closed and drained
			c.mu.Unlock()
			return
		}
		c.gather()
		spans := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.mu.Unlock()

		var drained int64
		for _, s := range spans {
			drained += int64(len(s.frame()))
		}
		var st CoalescerStats
		err := c.writeOut(&st, spans)
		for i := range spans {
			ReleaseFrame(spans[i].buf)
			spans[i] = span{}
		}

		c.mu.Lock()
		c.stats.Add(st)
		c.spare = spans[:0]
		// The drained frames are written (or lost to the error below)
		// and their buffers released either way: the budget no longer
		// holds them against appenders.
		c.pendingBytes -= drained
		c.room.Broadcast()
		if err != nil && c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		if err != nil {
			// The connection is broken; nothing more will be written.
			// Frames that raced in behind the drain would leak their
			// pooled buffers — release them (append refuses from now on).
			c.mu.Lock()
			stale := c.pending
			c.pending = nil
			c.pendingBytes = 0
			c.room.Broadcast()
			c.mu.Unlock()
			for _, s := range stale {
				ReleaseFrame(s.buf)
			}
			if c.onErr != nil {
				c.onErr(err)
			}
			return
		}
	}
}

// gatherRounds bounds the flusher's yields before a drain, and so how
// long a queued frame can wait for company: that many passes of the
// scheduler over what is runnable, never a span of time. A yielding
// goroutine goes to the back of the global run queue, behind every
// goroutine that is ready now and those they wake in turn (which queue
// locally, and the local queue is served first), so the first yield
// already lets the whole wave append and the second finds the queue
// unchanged and ends the wait. Later rounds are reached only while
// frames keep coming from goroutines that do not wait for this write
// (overlapping waves; on several Ps, a producer mid-burst on another),
// where each buys at most one more producer turn: twice the common path
// is the headroom for those, and the cut-off for a producer that never
// pauses. Bounds of 1, 2, 4 and 8 measured alike on every socket
// workload of the benchmark at one and two Ps, so the value is not
// tuned and need not be.
const gatherRounds = 4

// gather is the drain-then-flush rule (mu held on entry and return):
// yield, look again, repeat while the queue grew and the bound allows.
// A queue that already fills one write (maxFrames, MaxEnvelope, a byte
// budget that is blocking its appenders) is not waited on at all.
func (c *Coalescer) gather() {
	for round := 0; round < gatherRounds && !c.closed; round++ {
		n := len(c.pending)
		if (c.maxFrames > 0 && n >= c.maxFrames) || c.pendingBytes >= MaxEnvelope ||
			(c.budget > 0 && c.pendingBytes >= c.budget) {
			return
		}
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
		if len(c.pending) == n {
			return
		}
	}
}

// writeOut writes the drained queue: frames are grouped into flushes
// of at most maxFrames frames and MaxEnvelope bytes, each flush one
// single-frame write or one vectored batch envelope.
func (c *Coalescer) writeOut(st *CoalescerStats, spans []span) error {
	first := 0
	for first < len(spans) {
		// Grow the group while the limits allow.
		last, size := first, len(spans[first].frame())
		for last+1 < len(spans) &&
			(c.maxFrames <= 0 || last+1-first < c.maxFrames) &&
			size+len(spans[last+1].frame()) <= MaxEnvelope {
			last++
			size += len(spans[last].frame())
		}
		frames := last + 1 - first
		var err error
		if frames == 1 {
			// The frame is already contiguous in its own buffer: one
			// plain write, no envelope.
			err = c.write(st, spans[first].frame())
		} else {
			err = c.writeVec(st, spans[first:last+1], size)
		}
		st.Flushes++
		st.Frames += int64(frames)
		if frames > 1 {
			st.Batches++
		}
		if err != nil {
			return err
		}
		first = last + 1
	}
	return nil
}

// writeVec writes one batch envelope as a vectored write: the envelope
// header is materialized in the reserved prefix of the group's first
// frame (right-aligned, in place) and the frame buffers go to the
// writer as one batch — no memcpy between encode and syscall.
func (c *Coalescer) writeVec(st *CoalescerStats, group []span, size int) error {
	s0 := group[0]
	h := s0.off - 1 - uvarintLen(uint64(size))
	s0.buf[h] = 0
	binary.PutUvarint(s0.buf[h+1:s0.off], uint64(size))
	bufs := c.vecBufs[:0]
	bufs = append(bufs, s0.buf[h:])
	for _, s := range group[1:] {
		bufs = append(bufs, s.frame())
	}
	c.vecBufs = bufs
	return c.vwrite(st, bufs)
}

// vwrite pushes a buffer batch to the writer, tolerating partial
// writes explicitly across and within buffers. Real sockets take the
// net.Buffers path (writev); VectorWriter implementations get the
// whole batch per call; plain writers get one careful Write per
// buffer. net.Buffers' own io.Writer fallback is deliberately not
// used: it trusts the Write contract, and a short write with a nil
// error would silently desync the framed stream.
func (c *Coalescer) vwrite(st *CoalescerStats, bufs [][]byte) error {
	for len(bufs) > 0 {
		var n int64
		var err error
		switch w := c.w.(type) {
		case VectorWriter:
			var k int
			k, err = w.WriteVec(bufs)
			n = int64(k)
			bufs = consumeBufs(bufs, n)
		case *net.TCPConn, *net.UnixConn:
			c.netBufs = bufs
			n, err = c.netBufs.WriteTo(c.w)
			bufs = c.netBufs
		default:
			var k int
			k, err = c.w.Write(bufs[0])
			n = int64(k)
			bufs = consumeBufs(bufs, n)
		}
		st.Writes++
		st.Bytes += n
		if err != nil {
			return err
		}
		if n == 0 && len(bufs) > 0 {
			return io.ErrShortWrite // refuse to spin on a stuck writer
		}
	}
	return nil
}

// consumeBufs drops n written bytes off the front of bufs.
func consumeBufs(bufs [][]byte, n int64) [][]byte {
	for n > 0 && len(bufs) > 0 {
		if n < int64(len(bufs[0])) {
			bufs[0] = bufs[0][n:]
			return bufs
		}
		n -= int64(len(bufs[0]))
		bufs = bufs[1:]
	}
	return bufs
}

// write pushes b to the writer, tolerating partial writes explicitly:
// an io.Writer must error when it writes short, but a flaky conn wrapper
// may not, and a framed stream cannot afford to drop a suffix silently.
func (c *Coalescer) write(st *CoalescerStats, b []byte) error {
	for len(b) > 0 {
		n, err := c.w.Write(b)
		st.Writes++
		st.Bytes += int64(n)
		b = b[n:]
		if err != nil {
			return err
		}
		if n == 0 && len(b) > 0 {
			return io.ErrShortWrite // refuse to spin on a stuck writer
		}
	}
	return nil
}
