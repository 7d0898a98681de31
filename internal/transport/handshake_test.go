package transport_test

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
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
// agree on the full feature set, and traffic flows.
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
	if peer.Features&wire.FeatDelta == 0 {
		t.Fatalf("peer features %b missing delta", peer.Features)
	}
	if peer.Version != wire.ProtoVersion || peer.Shards != 1 {
		t.Fatalf("peer announced version %d, %d shards", peer.Version, peer.Shards)
	}
	if peer.Nodes != 2 {
		t.Fatalf("peer reports %d nodes", peer.Nodes)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeFeatureIntersection: a delta-on endpoint and a delta-off
// one must settle on full snapshots in both directions — neither link
// announces CtrlTokenDelta, whichever end dialed — and token state
// still crosses both.
func TestHandshakeFeatureIntersection(t *testing.T) {
	var resp network.Message
	for _, m := range wire.Samples() {
		if m.Kind() == "LASS.Response" {
			resp = m
			break
		}
	}
	// Four nodes, two per endpoint: the sample token's stamp vectors are
	// four entries long.
	a, err := transport.ListenTCP("127.0.0.1:0", 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0", 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Configure(transport.Config{Shards: []int{8}, Wire: transport.WireOptions{Delta: true}})
	b.Configure(transport.Config{Shards: []int{8}})
	toB, toA := newEgressTap(t, b.Addr()), newEgressTap(t, a.Addr())
	viaB, viaA := toB.ln.Addr().String(), toA.ln.Addr().String()
	if err := a.Connect([]string{a.Addr(), a.Addr(), viaB, viaB}); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect([]string{viaA, viaA, b.Addr(), b.Addr()}); err != nil {
		t.Fatal(err)
	}
	atA, atB := make(chan network.Message, 1), make(chan network.Message, 1)
	a.Bind(0, 0, func(from network.NodeID, m network.Message) { atA <- m })
	b.Bind(0, 2, func(from network.NodeID, m network.Message) { atB <- m })
	transporttest.Send(a, transport.Link{From: 0, To: 2}, resp)
	transporttest.Send(b, transport.Link{From: 2, To: 0}, resp)
	for _, ch := range []chan network.Message{atA, atB} {
		if m := waitDelivery(t, ch); m.Kind() != "LASS.Response" {
			t.Fatalf("delivered %#v", m)
		}
	}
	if peer, ok := a.Negotiated(viaB); !ok || peer.Features&wire.FeatDelta != 0 {
		t.Fatalf("delta-off peer advertised %b (negotiated=%v)", peer.Features, ok)
	}
	if peer, ok := b.Negotiated(viaA); !ok || peer.Features&wire.FeatDelta == 0 {
		t.Fatalf("delta-on peer advertised %b (negotiated=%v)", peer.Features, ok)
	}
	for name, tap := range map[string]*egressTap{"a→b": toB, "b→a": toA} {
		if _, controls := tap.canonical(t); len(controls) != 1 || controls[0] != wire.CtrlHello {
			t.Errorf("%s announced controls %v, want the hello alone", name, controls)
		}
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
	waitErr(t, b, "resources")
}

// rawHello is the opening a raw dialer needs before its frames are
// looked at: a hello that claims no shape, so it passes any endpoint.
func rawHello() []byte {
	return wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
}

// rawDial opens a bare socket to tr, writes first as its opening bytes,
// and returns the CtrlReject reason tr answers with before closing the
// connection.
func rawDial(t *testing.T, tr *transport.TCP, first []byte) (reason string) {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(first); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	ctl, err := wire.ReadControl(br)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Code != wire.CtrlReject {
		t.Fatalf("got control %d, want CtrlReject", ctl.Code)
	}
	if reason, err = wire.ParseReject(ctl.Payload); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := br.ReadByte(); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("connection not closed after the reject: %v", err)
	}
	return reason
}

// TestHandshakeVersionMismatch: a raw dialer announcing another
// protocol version — a future one, the v1 of the builds before the
// hello became mandatory, or the six-field v2 hello byte for byte as the
// previous build sent it — gets a CtrlReject naming both versions, and
// the acceptor records the failure. The v2 bytes read as a five-field
// hello would claim 8 Mi shards: the version is refused first.
func TestHandshakeVersionMismatch(t *testing.T) {
	hello := func(version uint64) []byte {
		h := wire.Hello{Version: version, Nodes: 2}
		return wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, h))
	}
	v2 := []byte{0x00, 0x00, 0x02, 0x09, 0x02, 0x04, 0x08, 0x01, 0x80, 0x80, 0x80, 0x04, 0x01}
	for _, tc := range []struct {
		version uint64
		first   []byte
	}{{wire.ProtoVersion + 41, hello(wire.ProtoVersion + 41)}, {1, hello(1)}, {2, v2}} {
		b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		reason := rawDial(t, b, tc.first)
		want := fmt.Sprintf("protocol version %d, want %d", tc.version, wire.ProtoVersion)
		if !strings.Contains(reason, want) {
			t.Fatalf("reject reason %q does not say %q", reason, want)
		}
		waitErr(t, b, want)
	}
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
		waitErr(t, b, "hello mid-stream")
	})
}

// TestLegacyDialerServed: what a dialer that skips the hello is served
// is a refusal. Its first stream element is a frame, so it gets a
// CtrlReject and a closed socket, nothing is delivered, and the
// endpoint's Err names the cause.
func TestLegacyDialerServed(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Configure(transport.Config{Shards: []int{8}})
	got := make(chan network.Message, 1)
	b.Bind(0, 0, func(from network.NodeID, m network.Message) { got <- m })

	payload := binary.AppendVarint(nil, 1) // from node 1
	payload = binary.AppendVarint(payload, 0)
	payload, err = wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: 1, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reason := rawDial(t, b, wire.AppendFrame(nil, payload)); !strings.Contains(reason, "hello required") {
		t.Fatalf("reject reason %q", reason)
	}
	waitErr(t, b, "hello required")
	select {
	case m := <-got:
		t.Fatalf("frame ahead of the hello delivered: %#v", m)
	default:
	}
}
