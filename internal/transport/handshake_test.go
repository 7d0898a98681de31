package transport_test

import (
	"bufio"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// listenPair builds a two-process cluster: endpoint a hosts node 0,
// endpoint b hosts node 1, tuned before any connection is dialed.
func listenPair(t *testing.T, tuneA, tuneB transport.WireOptions) (a, b *transport.TCP) {
	t.Helper()
	a, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err = transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Configure(transport.Config{Wire: tuneA})
	b.Configure(transport.Config{Wire: tuneB})
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func waitErr(t *testing.T, tr *transport.TCP, substr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := tr.Err(); err != nil {
			if !strings.Contains(err.Error(), substr) {
				t.Fatalf("error %q does not mention %q", err, substr)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no transport error mentioning %q", substr)
}

func waitDelivery(t *testing.T, ch <-chan network.Message) network.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
		return nil
	}
}

// TestHandshakeNegotiates: two same-build endpoints exchange hellos,
// agree on the full feature set and the default window, and traffic
// flows.
func TestHandshakeNegotiates(t *testing.T) {
	a, b := listenPair(t, transport.WireOptions{Delta: true}, transport.WireOptions{Delta: true})
	got := make(chan network.Message, 1)
	b.Bind(0, 1, func(from network.NodeID, m network.Message) { got <- m })
	transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitDelivery(t, got)
	peer, ok := a.Negotiated(b.Addr())
	if !ok {
		t.Fatal("connection not negotiated")
	}
	if peer.Features&wire.FeatDelta == 0 || peer.Features&wire.FeatWritev == 0 {
		t.Fatalf("peer features %b missing delta or writev", peer.Features)
	}
	if peer.Window != transport.DefaultWindow {
		t.Fatalf("peer window %d, want default %d", peer.Window, transport.DefaultWindow)
	}
	if peer.Nodes != 2 {
		t.Fatalf("peer reports %d nodes", peer.Nodes)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeFeatureIntersection: a full-featured dialer against a
// feature-disabled acceptor must land on the common subset — delta
// suppressed on the wire — and still deliver.
func TestHandshakeFeatureIntersection(t *testing.T) {
	a, b := listenPair(t,
		transport.WireOptions{Delta: true},
		transport.WireOptions{Delta: false, NoVectored: true})
	got := make(chan network.Message, 1)
	b.Bind(0, 1, func(from network.NodeID, m network.Message) { got <- m })
	transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 7})
	m := waitDelivery(t, got)
	if m.(transporttest.Msg).Seq != 7 {
		t.Fatalf("delivered %#v", m)
	}
	peer, ok := a.Negotiated(b.Addr())
	if !ok {
		t.Fatal("connection not negotiated")
	}
	if peer.Features&wire.FeatDelta != 0 {
		t.Fatal("feature-disabled peer advertised delta")
	}
	if peer.Features&wire.FeatWritev != 0 {
		t.Fatal("no-writev peer advertised writev")
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeNodesMismatch: a dialer configured for a different
// cluster size must be rejected with a reason, not served garbage.
func TestHandshakeNodesMismatch(t *testing.T) {
	a, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Connect([]string{a.Addr(), b.Addr()}); err != nil {
		t.Fatal(err)
	}
	transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitErr(t, a, "rejected")
	waitErr(t, b, "nodes")
}

// TestHandshakeResourceMismatch: both sides know their resource
// universe and disagree — rejected. One side not knowing (zero) is
// fine: the shape check only binds where both sides have announced.
func TestHandshakeResourceMismatch(t *testing.T) {
	a, b := listenPair(t, transport.WireOptions{}, transport.WireOptions{})
	a.Configure(transport.Config{Shards: []int{8}})
	b.Configure(transport.Config{Shards: []int{9}})
	transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitErr(t, a, "rejected")
	waitErr(t, b, "resource universe")
}

// TestHandshakeVersionMismatch: a raw dialer announcing a future
// protocol version gets a CtrlReject naming the version, and the
// acceptor records the failure.
func TestHandshakeVersionMismatch(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := wire.Hello{Version: wire.ProtoVersion + 41, Nodes: 2}
	if _, err := c.Write(wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, h))); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	ctl, err := wire.ReadControl(bufio.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Code != wire.CtrlReject {
		t.Fatalf("got control %d, want CtrlReject", ctl.Code)
	}
	reason, err := wire.ParseReject(ctl.Payload)
	if err != nil || !strings.Contains(reason, "version") {
		t.Fatalf("reject reason %q, %v", reason, err)
	}
	waitErr(t, b, "version")
}

// TestHandshakeHostile: a garbage hello payload and a duplicate hello
// both kill the connection with a recorded error; nothing is delivered.
func TestHandshakeHostile(t *testing.T) {
	t.Run("garbage payload", func(t *testing.T) {
		b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(wire.AppendControl(nil, wire.CtrlHello, []byte{0xFF})); err != nil {
			t.Fatal(err)
		}
		waitErr(t, b, "hello")
	})
	t.Run("duplicate hello", func(t *testing.T) {
		b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Nodes: 2})
		hello := wire.AppendControl(nil, wire.CtrlHello, h)
		if _, err := c.Write(append(append([]byte{}, hello...), hello...)); err != nil {
			t.Fatal(err)
		}
		waitErr(t, b, "hello after")
	})
}

// TestLegacyDialerServed: a peer that never sends a hello (a pre-
// negotiation build) is detected and served byte-for-byte in legacy
// mode — its frames delivered, and not one byte sent back to it.
func TestLegacyDialerServed(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Configure(transport.Config{Shards: []int{8}})
	got := make(chan network.Message, 1)
	b.Bind(0, 0, func(from network.NodeID, m network.Message) { got <- m })

	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The exact pre-negotiation stream: a bare frame, no hello.
	payload := binary.AppendVarint(nil, 1) // from node 1
	payload = binary.AppendVarint(payload, 0)
	payload, err = wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: 1, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	if _, err := c.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	m := waitDelivery(t, got)
	if m.(transporttest.Msg).Seq != 3 {
		t.Fatalf("delivered %#v", m)
	}
	// The reverse path must stay silent: a legacy peer's reader would
	// choke on any control we emitted.
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 1)
	if n, err := c.Read(buf); n != 0 || err == nil {
		t.Fatalf("legacy connection received %d reverse-path bytes (err=%v)", n, err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyAcceptorNoHello: NoHello dials a connection that skips
// negotiation entirely — the escape hatch for pre-negotiation
// acceptors — and traffic still flows, uncredited but byte-budgeted.
func TestLegacyAcceptorNoHello(t *testing.T) {
	a, b := listenPair(t, transport.WireOptions{NoHello: true}, transport.WireOptions{})
	got := make(chan network.Message, 1)
	b.Bind(0, 1, func(from network.NodeID, m network.Message) { got <- m })
	transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 9})
	waitDelivery(t, got)
	if _, ok := a.Negotiated(b.Addr()); ok {
		t.Fatal("NoHello connection claims negotiation")
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowStallsSender is the end-to-end flow-control test: a peer
// that grants a tiny window and then stops crediting must stall the
// sender's egress near that window; a later credit resumes it.
func TestWindowStallsSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const window = 4096
	credit := make(chan struct{})
	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := wire.ReadControl(br); err != nil { // the dialer's hello
			acceptErr <- err
			return
		}
		h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Window: window})
		if _, err := c.Write(wire.AppendControl(nil, wire.CtrlHello, h)); err != nil {
			acceptErr <- err
			return
		}
		// Stop reading: the window is granted but never replenished.
		<-credit
		u := wire.AppendWindowUpdate(nil, 1<<20)
		c.Write(wire.AppendControl(nil, wire.CtrlWindow, u))
		<-credit // hold the conn open until the test is done
	}()

	a, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect([]string{a.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	// Paced single sends keep each flush small, so egress drains group
	// by group until the window is exhausted.
	for i := 0; i < 400; i++ {
		transporttest.Send(a, transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: int64(i)})
		time.Sleep(500 * time.Microsecond)
	}
	st := a.WireStats()
	if st.Bytes > window+512 {
		t.Fatalf("wrote %d bytes against a %d-byte window", st.Bytes, window)
	}
	if st.Bytes == 0 {
		t.Fatal("nothing written: window never opened")
	}
	if st.Stalls == 0 {
		t.Fatal("no egress stalls recorded")
	}
	select {
	case err := <-acceptErr:
		t.Fatal(err)
	default:
	}

	credit <- struct{}{} // replenish: egress must resume
	deadline := time.Now().Add(5 * time.Second)
	for a.WireStats().Bytes <= st.Bytes {
		if time.Now().After(deadline) {
			t.Fatalf("egress never resumed past %d bytes after credit", st.Bytes)
		}
		time.Sleep(time.Millisecond)
	}
	close(credit)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}
