package wire_test

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mralloc/internal/wire"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []wire.Hello{
		{Version: wire.ProtoVersion, Nodes: 512, Resources: 80, Features: wire.FeatDelta, Shards: 1},
		{Version: wire.ProtoVersion, Nodes: 4, Resources: 16, Shards: 4, Cluster: "-alg=counter-loan -lease-ttl=250ms -reliable=true"},
	} {
		got, err := wire.ParseHello(wire.AppendHello(nil, h))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

// TestHelloForwardCompat: a future hello may append fields; today's
// parser must ignore the trailing bytes rather than reject them.
func TestHelloForwardCompat(t *testing.T) {
	payload := wire.AppendHello(nil, wire.Hello{Version: 1, Nodes: 3, Resources: 4, Cluster: "-alg=incremental"})
	payload = append(payload, 0xAB, 0xCD, 0xEF) // hypothetical future fields
	got, err := wire.ParseHello(payload)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if got.Nodes != 3 || got.Resources != 4 || got.Cluster != "-alg=incremental" {
		t.Fatalf("parsed %+v", got)
	}
}

// TestHelloHostile: truncated and absurd hellos must error, never
// panic or demand memory.
func TestHelloHostile(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": wire.AppendHello(nil, wire.Hello{Version: 1, Nodes: 3, Resources: 4})[:2],
		// All five fields are mandatory: a hello that ends after the
		// features (no shard count) is truncated, not flat.
		"four fields": func() []byte {
			h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Nodes: 3, Resources: 4, Shards: 1})
			return h[:len(h)-1] // the shard count is one byte
		}(),
		"absurd shape": func() []byte {
			return wire.AppendHello(nil, wire.Hello{Version: 1, Nodes: 1 << 30, Resources: 4})
		}(),
		// The cluster string is mandatory too: a version-9 hello that ends
		// after the shard count has none.
		"no cluster string": func() []byte {
			h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Nodes: 3, Resources: 4, Shards: 1})
			return h[:len(h)-1] // an empty string is its one length byte
		}(),
		"cluster string cut short": func() []byte {
			h := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Shards: 1, Cluster: "-alg=counter-loan"})
			return h[:len(h)-3]
		}(),
		"over-long cluster string": wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, Shards: 1, Cluster: strings.Repeat("x", 101)}),
	}
	for name, payload := range cases {
		if _, err := wire.ParseHello(payload); err == nil {
			t.Errorf("%s hello accepted: %x", name, payload)
		}
	}
}

// TestWindowUpdateAndRejectRoundTrip: a reject reason round-trips, cut
// at 256 bytes; a malformed payload is an error. (Reject is the one
// payload left under this name, which the suite's pinned test list
// keeps.)
func TestWindowUpdateAndRejectRoundTrip(t *testing.T) {
	reason, err := wire.ParseReject(wire.AppendReject(nil, "version mismatch"))
	if err != nil || reason != "version mismatch" {
		t.Fatalf("reject: %q, %v", reason, err)
	}
	long := strings.Repeat("x", 1000)
	reason, err = wire.ParseReject(wire.AppendReject(nil, long))
	if err != nil || len(reason) != 256 {
		t.Fatalf("long reject not truncated: %d bytes, %v", len(reason), err)
	}
	if _, err := wire.ParseReject([]byte{0xFF}); err == nil {
		t.Fatal("malformed reject accepted")
	}
}

// TestReadControl: the dialer-side handshake reader accepts controls,
// skips nothing (each call is one element), and rejects frames where a
// control is required.
func TestReadControl(t *testing.T) {
	stream := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: 1}))
	stream = wire.AppendControl(stream, 99, []byte{1})
	br := bufio.NewReader(bytes.NewReader(stream))
	c1, err := wire.ReadControl(br)
	if err != nil || c1.Code != wire.CtrlHello {
		t.Fatalf("first control: %+v, %v", c1, err)
	}
	if _, err := wire.ParseHello(c1.Payload); err != nil {
		t.Fatal(err)
	}
	c2, err := wire.ReadControl(br)
	if err != nil || c2.Code != 99 || len(c2.Payload) != 1 {
		t.Fatalf("second control: %+v, %v", c2, err)
	}

	// A frame where a control is required is a handshake violation.
	frame := wire.AppendFrame(nil, []byte("zz"))
	if _, err := wire.ReadControl(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("frame accepted as a control")
	}
	// An oversized control payload is hostile.
	big := wire.AppendControl(nil, 7, make([]byte, 4096))
	if _, err := wire.ReadControl(bufio.NewReader(bytes.NewReader(big))); err == nil {
		t.Fatal("oversized control accepted")
	}
}

// TestReadHelloReply: the dialer takes exactly one answer. A hello that
// passes its own is returned; one that does not, a reject, any other
// control and anything that is not a control all fail the handshake, each
// naming why.
func TestReadHelloReply(t *testing.T) {
	const cluster, other = "-alg=counter-loan -reliable=true", "-alg=counter-loan -reliable=false"
	mine := wire.Hello{Version: wire.ProtoVersion, Nodes: 3, Resources: 8, Shards: 1, Cluster: cluster}
	hello := func(h wire.Hello) []byte {
		return wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, h))
	}
	peer := wire.Hello{Version: wire.ProtoVersion, Nodes: 3, Features: wire.FeatDelta, Shards: 1, Cluster: cluster}
	got, err := wire.ReadHelloReply(bufio.NewReader(bytes.NewReader(hello(peer))), mine)
	if err != nil || got != peer {
		t.Fatalf("sound reply: %+v, %v", got, err)
	}
	for name, tc := range map[string]struct {
		reply []byte
		want  string
	}{
		"other version": {hello(wire.Hello{Version: wire.ProtoVersion - 1, Nodes: 3}), fmt.Sprintf("version %d, want %d", wire.ProtoVersion-1, wire.ProtoVersion)},
		"other shape":   {hello(wire.Hello{Version: wire.ProtoVersion, Nodes: 4}), "4 nodes"},
		"other cluster": {hello(wire.Hello{Version: wire.ProtoVersion, Nodes: 3, Shards: 1, Cluster: other}),
			fmt.Sprintf("cluster configured %q, this end has %q", other, cluster)},
		"garbage hello": {wire.AppendControl(nil, wire.CtrlHello, []byte{0xFF}), "truncated"},
		"reject":        {wire.AppendControl(nil, wire.CtrlReject, wire.AppendReject(nil, "no room")), "handshake rejected: no room"},
		"other control": {wire.AppendControl(nil, 1, nil), "stream control 1"},
		"a frame":       {wire.AppendFrame(nil, []byte("zz")), "expected a stream control"},
		"nothing":       {nil, "EOF"},
	} {
		_, err := wire.ReadHelloReply(bufio.NewReader(bytes.NewReader(tc.reply)), mine)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}
