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

// TestHandshakeNegotiates: two same-build endpoints exchange hellos
// that match, and traffic flows. (What a hello must match is pinned by
// the mismatch tests, one field each.)
func TestHandshakeNegotiates(t *testing.T) {
	a, b := listenPair(t)
	got := make(chan network.Message, 1)
	delta := transport.Config{Wire: transport.WireOptions{Delta: true}}
	a.Configure(delta, discard)
	b.Configure(delta, func(_ transport.Link, m network.Message) { got <- m })
	a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	waitDelivery(t, got)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeFeatureMismatch: the wire features are a cluster-wide
// setting, checked and not negotiated. A delta-on endpoint and a
// delta-off one refuse each other whichever end dials: each end's error
// names both feature sets, no frame is delivered, and neither end
// panics.
func TestHandshakeFeatureMismatch(t *testing.T) {
	a, b := listenPair(t)
	got := make(chan network.Message, 2)
	deliver := func(_ transport.Link, m network.Message) { got <- m }
	a.Configure(transport.Config{Wire: transport.WireOptions{Delta: true}}, deliver)
	b.Configure(transport.Config{}, deliver)
	a.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	b.Send(transport.Link{From: 1, To: 0}, transporttest.Msg{K: transporttest.KindA, From: 1, Seq: 1})
	for name, tr := range map[string]*transport.TCP{"a": a, "b": b} {
		waitErr(t, tr, "wire features")
		for _, want := range []string{fmt.Sprintf("%#x", wire.FeatDelta), "0x0"} {
			if err := tr.Err(); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name feature set %s", name, err, want)
			}
		}
	}
	select {
	case m := <-got:
		t.Fatalf("frame delivered across refused endpoints: %#v", m)
	case <-time.After(100 * time.Millisecond):
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
