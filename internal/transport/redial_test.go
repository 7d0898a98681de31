package transport_test

import (
	"net"
	"runtime"
	"strings"
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
	tr.Configure(transport.Config{}, discard)
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
	tr.Configure(transport.Config{Clock: clk}, discard)
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
	a.Configure(transport.Config{}, discard)
	b.Configure(transport.Config{}, func(_ transport.Link, m network.Message) { got <- m.(transporttest.Msg) })

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
	// fault being injected — and the failure drops the connection before
	// it is recorded.
	send(2)
	waitErr(t, a, "write to")
	// Everything after the sweep redials and must arrive, in order.
	send(3)
	send(4)
	expect(3)
	expect(4)
}

// TestDialBeforeConfigure: a 4-shard endpoint sends to a peer that is
// bound (ListenTCP) but not configured yet. The peer accepts only once
// Configure has told it its layout, so the dial waits instead of
// meeting a flat endpoint that rejects it, and the frame arrives once
// the peer configures its 4 shards, with no error at either end. The
// wait is the dial window (10 s), not one handshake: at a 6 s gap the
// first handshake has timed out (5 s) against the silent acceptor and
// the dial is retried.
func TestDialBeforeConfigure(t *testing.T) {
	for _, gap := range []time.Duration{200 * time.Millisecond, 6 * time.Second} {
		t.Run(gap.String(), func(t *testing.T) {
			a, b := listenPair(t)
			sizes := []int{2, 2, 2, 2}
			a.Configure(transport.Config{Shards: sizes}, discard)
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				a.Send(transport.Link{Shard: 3, From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
			}()
			time.Sleep(gap)
			got := make(chan transport.Link, 1)
			b.Configure(transport.Config{Shards: sizes}, func(l transport.Link, _ network.Message) { got <- l })
			select {
			case l := <-got:
				if l != (transport.Link{Shard: 3, From: 0, To: 1}) {
					t.Fatalf("delivered on %+v", l)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("frame never delivered (a: %v, b: %v)", a.Err(), b.Err())
			}
			<-sent
			if err := a.Err(); err != nil {
				t.Fatal(err)
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDialWindowOncePerOutage: the first Send to a dead peer rides out
// the dial window; the peer is then down, and the next Send to it makes
// one dial attempt and returns without arming a backoff, so a shard
// runner sending to a dead peer stalls once per outage, not once per
// message. The endpoint runs on a virtual clock that the test advances
// through the window's backoffs. Once the peer is up again, a single
// dial reaches it.
func TestDialWindowOncePerOutage(t *testing.T) {
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
	defer tr.Close()
	clk := sim.NewVirtual()
	tr.Configure(transport.Config{Clock: clk}, discard)
	if err := tr.Connect([]string{tr.Addr(), dead}); err != nil {
		t.Fatal(err)
	}
	send := func() <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
		}()
		return done
	}
	first := send()
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		select {
		case <-first:
		default:
			if time.Now().After(deadline) {
				t.Fatal("the first Send still dialing 30s into the test")
			}
			if clk.Armed() > 0 {
				clk.Advance(50 * time.Millisecond)
			}
			continue
		}
		break
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("window ran out, error %v", err)
	}
	select {
	case <-send():
	case <-time.After(2 * time.Second):
		t.Fatal("a Send to a peer already down still blocked after 2s: it started another dial window")
	}
	if n := clk.Armed(); n != 0 {
		t.Fatalf("a Send to a peer already down armed %d timers, want none", n)
	}

	peer, err := transport.ListenTCP(dead, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	got := make(chan struct{}, 1)
	peer.Configure(transport.Config{}, func(transport.Link, network.Message) { got <- struct{}{} })
	select {
	case <-send():
	case <-time.After(10 * time.Second):
		t.Fatal("a Send to a peer back up still blocked after 10s")
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer back up never received the frame")
	}
}
