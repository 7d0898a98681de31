package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mralloc/internal/wire"
)

// TestClientTimeoutDoesNotLeakPending: a withdrawn request gets no
// response from the daemon (the withdraw suppresses grant and deny),
// so the ctx.Done path must drop its own pending entry — against a
// black-hole server, repeated timeouts must leave the map empty.
func TestClientTimeoutDoesNotLeakPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			_, _ = io.Copy(io.Discard, c) // swallow frames, never answer
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if _, err := cl.Acquire(ctx, AnyNode, 0); err == nil {
			t.Fatal("acquire against a black-hole server succeeded")
		}
		cancel()
	}
	cl.mu.Lock()
	n := len(cl.pending)
	cl.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked by timed-out acquires", n)
	}
}

// TestClientControlAfterHandshake: the daemon's hello is the one control
// a client takes. A control behind it — a second hello, or a code of
// another build — ends the connection: the pending acquire reports
// ErrConnLost naming the control, and the grant behind it is never seen.
func TestClientControlAfterHandshake(t *testing.T) {
	reply := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil,
		wire.Hello{Version: wire.ProtoVersion, Nodes: 1, Resources: 2, Shards: 1}))
	grant, err := wire.Append(nil, ClientGrant{Req: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, ctl := range map[string][]byte{
		"second hello":    reply,
		"unknown control": wire.AppendControl(nil, 1, nil),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := wire.ReadControl(br); err != nil { // the client's hello
					return
				}
				c.Write(reply)
				// The acquire is pending once its frame is here.
				if _, err := wire.NewFrameReader(br, maxClientFrame).Next(); err != nil {
					return
				}
				c.Write(wire.AppendFrame(append([]byte(nil), ctl...), grant))
				_, _ = io.Copy(io.Discard, br)
			}()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err = cl.Acquire(ctx, AnyNode, 0)
			if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), wire.ErrControl.Error()) {
				t.Fatalf("acquire across a mid-stream control: %v, want ErrConnLost naming %q", err, wire.ErrControl)
			}
		})
	}
}
