package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestClientConnLossTyped kills the connection under a pending Acquire
// — through the chaos proxy, exactly as the fault-injection tier does
// — and pins the conn-loss semantics: every pending acquire resolves
// promptly with an error satisfying errors.Is(_, ErrConnLost), later
// calls fail the same way instead of hanging, and Close stays
// idempotent afterwards.
func TestClientConnLossTyped(t *testing.T) {
	// A black-hole daemon: accepts, reads, never answers — so the
	// acquire is pending when the kill lands.
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
			go io.Copy(io.Discard, c)
		}
	}()
	px, err := newProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	cl, err := Dial(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := make(chan error, 1)
	go func() {
		_, err := cl.Acquire(context.Background(), AnyNode, 0, 1)
		got <- err
	}()
	// Wait until the acquire is pending on the wire, then cut it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.mu.Lock()
		n := len(cl.pending)
		cl.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acquire never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	if killed := px.KillConns(); killed != 1 {
		t.Fatalf("proxy killed %d connections, want 1", killed)
	}
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("mid-acquire conn kill returned a grant")
		}
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("pending acquire resolved with %v, want ErrConnLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending acquire hung after conn kill")
	}
	// Later calls fail fast and typed, never hang.
	start := time.Now()
	if _, err := cl.Acquire(context.Background(), AnyNode, 2); !errors.Is(err, ErrConnLost) {
		t.Fatalf("post-loss acquire: %v, want ErrConnLost", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("post-loss acquire took %v, want immediate failure", d)
	}
	// Close after the loss: idempotent, error-free, and it must not
	// overwrite the recorded conn-loss cause.
	if err := cl.Close(); err != nil {
		t.Fatalf("Close after conn loss: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := cl.Acquire(context.Background(), AnyNode, 3); !errors.Is(err, ErrConnLost) {
		t.Fatalf("acquire after Close-after-loss: %v, want the original ErrConnLost", err)
	}
}

// TestClientCloseIsNotConnLoss: a deliberate Close must NOT read as a
// lost connection — the two failure modes stay distinguishable.
func TestClientCloseIsNotConnLoss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			go io.Copy(io.Discard, c)
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Acquire(context.Background(), AnyNode, 0); err == nil || errors.Is(err, ErrConnLost) {
		t.Fatalf("acquire after deliberate Close: %v, want a non-ErrConnLost error", err)
	}
}
