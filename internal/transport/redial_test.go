package transport_test

import (
	"net"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// TestDialObservesClose: a Send blocked in the dial path — here inside
// the handshake wait against a peer that accepted but never answers —
// must unwind the moment the transport closes, not ride out the
// handshake timeout (5s) or the dial window (10s), and must leave no
// dialer goroutine behind.
func TestDialObservesClose(t *testing.T) {
	check := leakcheck.Check(t)
	// A listener that accepts and then says nothing: the dial succeeds
	// and the handshake blocks waiting for the hello reply.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	tr, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	}()
	select {
	case <-done:
		t.Fatal("Send returned before Close against a silent peer")
	case <-time.After(200 * time.Millisecond):
	}
	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked 2s after Close (dial path ignores shutdown)")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v behind a dead peer", d)
	}
	ln.Close() // stop the silent acceptor before counting goroutines
	check()
}

// TestDialRetryObservesClose: the dial retry loop against a dead
// address (instant refusals, backoff pauses) must also observe Close.
// The endpoint runs on a virtual clock that nobody advances, so neither
// the dial window nor a backoff can ever run out: only Close can unwind
// the Send.
func TestDialRetryObservesClose(t *testing.T) {
	check := leakcheck.Check(t)
	// Grab a port and release it: dials get ECONNREFUSED instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	tr, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewVirtual()
	tr.Configure(transport.Config{Clock: clk})
	if err := tr.Connect([]string{tr.Addr(), dead}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	}()
	// A backoff armed: the Send is in the retry loop.
	awaitArmed(t, clk, "the dial retry loop")
	tr.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send still retrying 2s after Close")
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("a Send cut short by Close reported %v", err)
	}
	check()
}

// TestAbortConnsRedial is the kill-then-redial pin at the transport
// level: after AbortConns kills a live connection mid-use, the next
// Sends must discover the corpse (losing only what was already queued
// on it), dial fresh, re-handshake, and deliver — the broken-flag
// redial path end to end.
func TestAbortConnsRedial(t *testing.T) {
	a, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	got := make(chan transporttest.Msg, 16)
	b.Bind(0, 1, func(from network.NodeID, m network.Message) { got <- m.(transporttest.Msg) })

	send := func(seq int64) {
		a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: seq})
	}
	expect := func(seq int64) {
		t.Helper()
		select {
		case m := <-got:
			if m.Seq != seq {
				t.Fatalf("got seq %d, want %d", m.Seq, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never delivered", seq)
		}
	}

	send(1)
	expect(1)
	if killed := a.AbortConns(); killed != 1 {
		t.Fatalf("AbortConns killed %d connections, want 1", killed)
	}
	// The first write onto the corpse fails and is lost — that is the
	// fault being injected — and the failure drops the connection.
	send(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, open := a.Negotiated(b.Addr()); !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed connection never swept from the conn table")
		}
		time.Sleep(time.Millisecond)
	}
	// Everything after the sweep redials and must arrive, in order.
	send(3)
	send(4)
	expect(3)
	expect(4)
	if _, open := a.Negotiated(b.Addr()); !open {
		t.Fatal("no negotiated connection after redial")
	}
}
