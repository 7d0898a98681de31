package transport_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// shortConn is a net.Conn stub that accepts at most k bytes per Write
// and — violating the io.Writer contract — reports the short write
// with a nil error. The old per-frame `conn.Write(frame)` egress
// trusted the contract implicitly; the coalesced egress must tolerate
// the violation explicitly, because a silently dropped suffix desyncs
// the framed stream for good.
type shortConn struct {
	k  int
	mu sync.Mutex
	b  bytes.Buffer
}

func (c *shortConn) Write(p []byte) (int, error) {
	if len(p) > c.k {
		p = p[:c.k]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.Write(p)
}

func (c *shortConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.b.Bytes()...)
}

func (c *shortConn) Read(p []byte) (int, error)       { select {} }
func (c *shortConn) Close() error                     { return nil }
func (c *shortConn) LocalAddr() net.Addr              { return nil }
func (c *shortConn) RemoteAddr() net.Addr             { return nil }
func (c *shortConn) SetDeadline(time.Time) error      { return nil }
func (c *shortConn) SetReadDeadline(time.Time) error  { return nil }
func (c *shortConn) SetWriteDeadline(time.Time) error { return nil }

// TestEgressSurvivesShortWrites drives the exact egress path an
// outConn uses — peer header + codec payload per frame, pushed through
// a coalescing writer — over a connection that only accepts 5 bytes at
// a time, then decodes the resulting stream and requires every frame
// intact and in order.
func TestEgressSurvivesShortWrites(t *testing.T) {
	const n, msgs = 4, 120
	conn := &shortConn{k: 5}
	co := wire.NewCoalescer(conn, 0, func(err error) { t.Errorf("write error: %v", err) })

	buf := wire.GetFrame(64)
	for s := int64(1); s <= msgs; s++ {
		buf = buf[:0]
		buf = binary.AppendVarint(buf, 1) // from
		buf = binary.AppendVarint(buf, 2) // to
		payload, err := wire.Append(buf, transporttest.Msg{K: transporttest.KindA, From: 1, Seq: s})
		if err != nil {
			t.Fatal(err)
		}
		buf = payload
		if !co.Append(payload) {
			t.Fatal("Append refused")
		}
	}
	wire.ReleaseFrame(buf)
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	fr := wire.NewFrameReader(bytes.NewReader(conn.bytes()), 1<<20)
	for s := int64(1); s <= msgs; s++ {
		frame, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", s, err)
		}
		d := wire.NewDecFor(frame, n, 0)
		if from, to := d.Site(), d.Site(); from != 1 || to != 2 {
			t.Fatalf("frame %d routed %d→%d, want 1→2", s, from, to)
		}
		m, err := wire.DecodeFor(d.Rest(), n, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", s, err)
		}
		if got := m.(transporttest.Msg).Seq; got != s {
			t.Fatalf("frame %d carries seq %d (loss or reordering across short writes)", s, got)
		}
	}
	st := co.Stats()
	if st.Frames != msgs {
		t.Fatalf("stats.Frames = %d, want %d", st.Frames, msgs)
	}
	// Every write was capped at 5 bytes, so writes must far exceed
	// flushes — the tolerance loop, not luck, delivered the stream.
	if st.Writes <= st.Flushes {
		t.Fatalf("writes=%d flushes=%d: short writes were not exercised", st.Writes, st.Flushes)
	}
}

// TestVectoredEgressShortWrites runs the transporttest conformance
// case: the owned-frame writev egress through a short-writing net.Conn
// whose vectored writes consume partially with a nil error.
func TestVectoredEgressShortWrites(t *testing.T) {
	transporttest.TestVectoredEgressShortWrites(t)
}

// TestTCPDeliveryOverLoopback is the socket-level regression: a real
// TCP pair under bursty load (which exercises batch envelopes end to
// end) must deliver every frame in order. The loopback kernel path
// never short-writes, so the stub test above covers that half; this
// one pins the integration.
func TestTCPDeliveryOverLoopback(t *testing.T) {
	eps := tcpFabric(t, 2)
	defer closeAll(t, eps)
	got := make(chan int64, 4096)
	eps[0].Configure(transport.Config{}, discard)
	eps[1].Configure(transport.Config{}, func(_ transport.Link, m network.Message) {
		got <- m.(transporttest.Msg).Seq
	})
	const msgs = 2000
	for s := int64(1); s <= msgs; s++ {
		eps[0].Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: s})
	}
	for s := int64(1); s <= msgs; s++ {
		select {
		case seq := <-got:
			if seq != s {
				t.Fatalf("got seq %d, want %d", seq, s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at seq %d", s)
		}
	}
}

func closeAll(t *testing.T, eps []transport.Transport) {
	t.Helper()
	seen := map[transport.Transport]bool{}
	for _, ep := range eps {
		if !seen[ep] {
			seen[ep] = true
			if err := ep.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}
	}
}
