package transport_test

import (
	"bufio"
	"bytes"
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
func listenPair(t *testing.T) (a, b *transport.TCP) {
	t.Helper()
	a, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err = transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	a, b := listenPair(t)
	got := make(chan network.Message, 1)
	delta := transport.Config{Wire: transport.WireOptions{Delta: true}}
	a.Configure(delta, discard)
	b.Configure(delta, func(_ transport.Link, m network.Message) { got <- m })
	a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
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

// TestHandshakeFeatureIntersection: the two hellos are the whole
// negotiation. Over {delta on, off} at either end, a link carries token
// state as deltas exactly when both ends enabled it, whichever end dialed
// — each pair is tapped in both directions, so every setting is seen as
// dialer and as acceptor — and as bare snapshots otherwise: endpoints
// configured either way interoperate. Nothing but the hello and frames
// is on the wire, and token state crosses either way.
func TestHandshakeFeatureIntersection(t *testing.T) {
	// A Send gives its message away (TCP releases what it encoded), so
	// every Send below gets a fresh copy of the sample.
	resp := func() network.Message {
		for _, m := range wire.Samples() {
			if m.Kind() == "LASS.Response" {
				return m
			}
		}
		t.Fatal("no LASS.Response sample")
		return nil
	}
	bare, err := wire.Append(nil, resp())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ deltaA, deltaB bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		t.Run(fmt.Sprintf("a=%v,b=%v", tc.deltaA, tc.deltaB), func(t *testing.T) {
			// Four nodes, two per endpoint: the sample token's stamp vectors
			// are four entries long.
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
			toB, toA := newEgressTap(t, b.Addr()), newEgressTap(t, a.Addr())
			viaB, viaA := toB.ln.Addr().String(), toA.ln.Addr().String()
			if err := a.Connect([]string{a.Addr(), a.Addr(), viaB, viaB}); err != nil {
				t.Fatal(err)
			}
			if err := b.Connect([]string{viaA, viaA, b.Addr(), b.Addr()}); err != nil {
				t.Fatal(err)
			}
			atA, atB := make(chan network.Message, 2), make(chan network.Message, 2)
			a.Configure(transport.Config{Shards: []int{8}, Wire: transport.WireOptions{Delta: tc.deltaA}},
				func(_ transport.Link, m network.Message) { atA <- m })
			b.Configure(transport.Config{Shards: []int{8}, Wire: transport.WireOptions{Delta: tc.deltaB}},
				func(_ transport.Link, m network.Message) { atB <- m })
			// The token twice each way: on a delta link the second transfer
			// meets a warm shadow.
			for i := 0; i < 2; i++ {
				a.Send(transport.Link{From: 0, To: 2}, resp())
				b.Send(transport.Link{From: 2, To: 0}, resp())
				for _, ch := range []chan network.Message{atA, atB} {
					if m := waitDelivery(t, ch); m.Kind() != "LASS.Response" {
						t.Fatalf("delivered %#v", m)
					}
				}
			}
			if peer, ok := a.Negotiated(viaB); !ok || peer.Features&wire.FeatDelta != 0 != tc.deltaB {
				t.Fatalf("b advertised %b (negotiated=%v)", peer.Features, ok)
			}
			if peer, ok := b.Negotiated(viaA); !ok || peer.Features&wire.FeatDelta != 0 != tc.deltaA {
				t.Fatalf("a advertised %b (negotiated=%v)", peer.Features, ok)
			}
			for name, tap := range map[string]*egressTap{"a→b": toB, "b→a": toA} {
				_, frames := tap.canonical(t) // fails on anything but a hello, then frames
				if len(frames) != 2 {
					t.Fatalf("%s carried %d frames, want the token twice", name, len(frames))
				}
				var body [2][]byte
				for i, frame := range frames {
					d := wire.NewDecFor(frame, 4, 8)
					d.ShardTag()
					d.Site()
					d.Site()
					body[i] = d.Rest()
				}
				if tc.deltaA && tc.deltaB {
					if bytes.Equal(body[0], bare) || len(body[1]) >= len(body[0]) {
						t.Errorf("%s: both ends enabled delta, but the token travelled as %d then %d bytes (bare snapshot: %d)",
							name, len(body[0]), len(body[1]), len(bare))
					}
				} else if !bytes.Equal(body[0], bare) || !bytes.Equal(body[1], bare) {
					t.Errorf("%s: one end has delta off, but the token did not travel as the bare snapshot both times:\n%x\n%x\nwant %x",
						name, body[0], body[1], bare)
				}
			}
			if err := a.Err(); err != nil {
				t.Fatal(err)
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
		})
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
	a.Configure(transport.Config{}, discard)
	b.Configure(transport.Config{}, discard)
	a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitErr(t, a, "rejected")
	waitErr(t, b, "nodes")
}

// TestHandshakeResourceMismatch: both sides know their resource
// universe and disagree — rejected. One side not knowing (zero) is
// fine: the shape check only binds where both sides have announced.
func TestHandshakeResourceMismatch(t *testing.T) {
	a, b := listenPair(t)
	a.Configure(transport.Config{Shards: []int{8}}, discard)
	b.Configure(transport.Config{Shards: []int{9}}, discard)
	a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitErr(t, a, "rejected")
	waitErr(t, b, "resources")
}

// rawHello is the opening a raw dialer needs before its frames are
// looked at: a hello that claims no shape, so it passes any endpoint.
func rawHello() []byte {
	return wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
}

// rawFrame is one peer frame as a raw dialer writes it: a test message
// from node from to node to.
func rawFrame(t *testing.T, from, to int64) []byte {
	t.Helper()
	payload := binary.AppendVarint(binary.AppendVarint(nil, from), to)
	payload, err := wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: network.NodeID(from), Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(nil, payload)
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
	c.SetReadDeadline(time.Now().Add(15 * time.Second)) // past the acceptor's handshake timeout
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
		b.Configure(transport.Config{}, discard)
		reason := rawDial(t, b, tc.first)
		want := fmt.Sprintf("protocol version %d, want %d", tc.version, wire.ProtoVersion)
		if !strings.Contains(reason, want) {
			t.Fatalf("reject reason %q does not say %q", reason, want)
		}
		waitErr(t, b, want)
	}
}

// TestHandshakeHostile: a garbage hello payload kills the connection
// with a recorded error, and so does any control once the handshake is
// over — a second hello, or the delta announcement the previous protocol
// version sent there. The error names it; the frame behind it is never
// delivered.
func TestHandshakeHostile(t *testing.T) {
	t.Run("garbage payload", func(t *testing.T) {
		b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Configure(transport.Config{}, discard)
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
	h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Nodes: 2})
	hello := wire.AppendControl(nil, wire.CtrlHello, h)
	for name, ctl := range map[string][]byte{
		"duplicate hello":             hello,
		"control after the handshake": wire.AppendControl(nil, 1, nil),
	} {
		t.Run(name, func(t *testing.T) {
			b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			got := make(chan network.Message, 1)
			b.Configure(transport.Config{}, func(_ transport.Link, m network.Message) { got <- m })
			c, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			stream := append(append(append([]byte(nil), hello...), ctl...), rawFrame(t, 0, 1)...)
			if _, err := c.Write(stream); err != nil {
				t.Fatal(err)
			}
			waitErr(t, b, wire.ErrControl.Error())
			select {
			case m := <-got:
				t.Fatalf("frame behind the control delivered: %#v", m)
			default:
			}
		})
	}
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
	got := make(chan network.Message, 1)
	b.Configure(transport.Config{Shards: []int{8}}, func(_ transport.Link, m network.Message) { got <- m })

	if reason := rawDial(t, b, rawFrame(t, 1, 0)); !strings.Contains(reason, "hello required") {
		t.Fatalf("reject reason %q", reason)
	}
	waitErr(t, b, "hello required")
	select {
	case m := <-got:
		t.Fatalf("frame ahead of the hello delivered: %#v", m)
	default:
	}
}

// TestSilentDialerDropped: a connection that never sends its hello is
// told why and dropped when the handshake timeout passes, where it used
// to hold its goroutine and descriptor until Close.
func TestSilentDialerDropped(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Configure(transport.Config{}, discard)
	reason := rawDial(t, b, nil)
	if !strings.Contains(reason, "hello required") || !strings.Contains(reason, "timeout") {
		t.Fatalf("reject reason %q, want the hello required and the timeout named", reason)
	}
}
