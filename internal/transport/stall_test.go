package transport

import (
	"bufio"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/wire"
)

// TestStalledPeerBlocksSendAtBudget pins the one flow-control rule of a
// peer link: a peer that answers the hello and then never reads costs a
// bounded queue and blocked Sends. Written bytes stop growing once the
// socket is full, the coalescing writer holds at most its byte budget
// plus one frame, every further Send blocks — and Close, bounded by its
// flush deadline, releases them all.
func TestStalledPeerBlocksSendAtBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	peerDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer c.Close()
		// Small socket buffers fill fast; the bound does not depend on them.
		c.(*net.TCPConn).SetReadBuffer(8 << 10)
		if _, err := wire.ReadControl(bufio.NewReader(c)); err != nil { // the dialer's hello
			peerDone <- err
			return
		}
		h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion})
		_, err = c.Write(wire.AppendControl(nil, wire.CtrlHello, h))
		<-hold // never read again
		peerDone <- err
	}()

	a, err := ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect([]string{a.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	a.Configure(Config{}, func(Link, network.Message) {})
	baseline := runtime.NumGoroutine()
	link := Link{From: 0, To: 1}
	a.Send(link, relAck{}) // dials
	oc := a.conn(ln.Addr().String())
	if oc == nil {
		t.Fatal(a.Err())
	}
	// A dialed connection is its flusher and nothing else.
	eventually(t, "one goroutine behind the dialed connection", func() bool { return runtime.NumGoroutine() <= baseline+1 })
	const budget = 32 << 10
	oc.co.SetByteBudget(budget)
	oc.c.(*net.TCPConn).SetWriteBuffer(8 << 10)

	const senders = 4
	var sent atomic.Int64
	released := make(chan struct{}, senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer func() { released <- struct{}{} }()
			for i := uint64(0); ; i++ {
				select {
				case <-a.closed:
					return
				default:
				}
				a.Send(link, relAck{Cum: i})
				sent.Add(1)
			}
		}()
	}

	// Stalled: the senders sit in the budget, nothing more reaches the
	// socket, and the queue is at its bound.
	eventually(t, "a Send to block on the byte budget", func() bool { return a.WireStats().Stalls >= 1 })
	eventually(t, "egress and Sends to stop", func() bool {
		bytes, n := a.WireStats().Bytes, sent.Load()
		time.Sleep(50 * time.Millisecond)
		return a.WireStats().Bytes == bytes && sent.Load() == n
	})
	if q := oc.co.QueuedBytes(); q > budget+64 {
		t.Fatalf("%d bytes queued behind a %d-byte budget", q, budget)
	}
	select {
	case <-released:
		t.Fatal("a Send loop ended before Close")
	default:
	}

	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*closeFlushTimeout+time.Second {
		t.Fatalf("Close took %v behind a stalled peer", d)
	}
	for s := 0; s < senders; s++ {
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a Send blocked on the budget")
		}
	}
	close(hold)
	if err := <-peerDone; err != nil {
		t.Fatal(err)
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
