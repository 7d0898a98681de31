package serve

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/wire"
)

// holdBackend grants every acquisition at once and counts the grants
// not yet released.
type holdBackend struct{ held atomic.Int64 }

func (b *holdBackend) session(int) (BackendSession, error) { return holdSession{b}, nil }

type holdSession struct{ b *holdBackend }

func (s holdSession) Acquire(context.Context, AcquireOpts) (func(), error) {
	s.b.held.Add(1)
	var once sync.Once
	return func() { once.Do(func() { s.b.held.Add(-1) }) }, nil
}

func (holdSession) Close() {}

// TestEgressBudgetShedsNonReader: a client that holds a grant, then
// keeps sending requests that are denied and never reads a response, is
// shed once its queued responses pass the egress budget: the server
// closes the connection, hands back the grant, and has no request of it
// left in flight. Without the shed the responses would queue without
// bound and the connection would live on.
func TestEgressBudgetShedsNonReader(t *testing.T) {
	b := &holdBackend{}
	srv, err := NewServer(ServerConfig{Listen: "127.0.0.1:0", Nodes: 1, Resources: 4, Local: []int{0}, Open: b.session})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.egressBudget = 4 << 10 // about 140 queued denials

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame := func(m network.Message) []byte {
		payload, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendFrame(nil, payload)
	}
	opening := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
	opening = append(opening, frame(ClientAcquire{Req: 1, Node: 0, Resources: []int64{0}})...)
	if _, err := nc.Write(opening); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the grant", func() bool { return b.held.Load() == 1 })

	// A denial registers nothing, so one batch can be sent over and over.
	// 8 MB of 22-byte requests draw 11 MB of 30-byte denials: the queue
	// crosses the budget even after both ends' socket buffers have
	// filled.
	var batch []byte
	for i := 0; i < 256; i++ {
		batch = append(batch, frame(ClientAcquire{Req: 2, Node: 0, Resources: []int64{99}})...)
	}
	nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	for sent := 0; sent < 8<<20; sent += len(batch) {
		if _, err := nc.Write(batch); err != nil {
			break // shed: the server closed the connection under us
		}
	}

	eventually(t, "the server to close the connection", func() bool {
		srv.connsMu.Lock()
		defer srv.connsMu.Unlock()
		return len(srv.conns) == 0
	})
	if n := b.held.Load(); n != 0 {
		t.Fatalf("%d grants still held after the shed", n)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d requests in flight after the shed", n)
	}
}
