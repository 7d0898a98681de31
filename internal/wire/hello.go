package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Connection negotiation. Every connection (peer transport and client
// port alike) opens with a hello exchange, and that exchange is the whole
// negotiation: the dialer's first bytes are its hello — protocol
// version, cluster shape, feature set and cluster configuration — and
// the acceptor answers with its own, or, when it cannot proceed
// (anything but a hello first, a different version, a disagreeing shape
// or configuration), with a reject naming the
// reason instead of silently dropping the socket. Each end then uses a
// capability iff both hellos carry its bit; nothing is announced, turned
// on or renegotiated later, so the stream that follows holds frames and
// envelopes only (batch.go).
//
// Both messages travel as control elements, which exist for the
// handshake alone:
//
//	control: uvarint(0)          the batch marker
//	         uvarint(0)          the control marker
//	         uvarint(code)       CtrlHello or CtrlReject
//	         uvarint(k), k bytes the code's payload
//
// The hello payload is forward-compatible by construction: decoders
// ignore trailing bytes, so future versions may append fields without
// breaking old peers, and unknown feature bits are simply never part
// of the negotiated intersection.

// ProtoVersion is the wire protocol version this build speaks. A hello
// carrying a different version is rejected — the version only moves
// when the stream alphabet or the mandatory hello fields change, which
// the feature bits exist to avoid.
const ProtoVersion = 9

const (
	// CtrlHello carries a Hello. It is the dialer's first stream element
	// and the acceptor's answer to one it accepts.
	CtrlHello = 2
	// CtrlReject refuses a handshake with a human-readable reason
	// (no hello, version or shape mismatch); the connection dies after
	// it.
	CtrlReject = 4
)

// maxControlPayload bounds one control's payload: a hello is a few
// bytes, a reject reason at most maxRejectReason.
const maxControlPayload = 1 << 10

// AppendControl appends a control element onto dst.
func AppendControl(dst []byte, code uint64, payload []byte) []byte {
	dst = append(dst, 0, 0) // batch marker, then the control marker
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// Feature bits a hello advertises. A capability is used on a
// connection only when both hellos carry its bit, which is what lets
// differently configured endpoints interoperate: the connection degrades
// to the common subset instead of desynchronizing.
const (
	// FeatDelta: the sender encodes and decodes token state as deltas
	// against per-connection shadows (internal/core's delta.go).
	FeatDelta uint64 = 1 << iota
)

// Hello is the negotiation announcement either side of a connection
// sends as a CtrlHello control before any frame.
type Hello struct {
	// Version is the sender's ProtoVersion.
	Version uint64
	// Nodes and Resources are the sender's cluster shape (N and M).
	// Zero means "unknown/unchecked" — a client that dials precisely to
	// learn M sends zero; mismatching non-zero values are rejected.
	Nodes, Resources int
	// Features is the sender's advertised feature set (Feat* bits).
	Features uint64
	// Shards is the sender's resource-shard count; a flat cluster is one
	// shard. Zero means unknown, like the shape — only a client sends it
	// — and mismatching non-zero values are rejected the same way.
	Shards int
	// Cluster is the sender's cluster-wide configuration, rendered by
	// the builder (internal/stack) in flag syntax, such as
	// "-alg=counter-loan -lease-ttl=0s -reliable=false". It must equal
	// the peer's exactly; an endpoint built without it, and a client,
	// send it empty.
	Cluster string
}

// Check reports why the sender of h cannot talk to the sender of peer:
// the protocol version must match exactly, nodes, resources and shards
// must each agree wherever both sides announce one (zero means
// unknown), and the cluster strings must be equal.
func (h Hello) Check(peer Hello) error {
	if peer.Version != h.Version {
		return fmt.Errorf("protocol version %d, want %d", peer.Version, h.Version)
	}
	for _, f := range [3]struct {
		what       string
		peer, mine int
	}{
		{"nodes", peer.Nodes, h.Nodes},
		{"resources", peer.Resources, h.Resources},
		{"resource shards", peer.Shards, h.Shards},
	} {
		if f.peer != 0 && f.mine != 0 && f.peer != f.mine {
			return fmt.Errorf("cluster of %d %s, this end has %d", f.peer, f.what, f.mine)
		}
	}
	if peer.Cluster != h.Cluster {
		return fmt.Errorf("cluster configured %q, this end has %q", peer.Cluster, h.Cluster)
	}
	return nil
}

// maxHelloShape bounds the node/resource counts a hello may claim; a
// hostile hello must not smuggle absurd shapes past validation.
const maxHelloShape = 1 << 24

// maxHelloCluster bounds a hello's cluster string, so that a reject
// quoting two of them fits maxRejectReason.
const maxHelloCluster = 100

// AppendHello appends h's payload encoding (version, nodes, resources,
// features, shards — all uvarints — then the cluster string, its
// length first) onto dst. Wrap it in a control with
// AppendControl(dst, CtrlHello, payload).
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, h.Version)
	dst = binary.AppendUvarint(dst, uint64(h.Nodes))
	dst = binary.AppendUvarint(dst, uint64(h.Resources))
	dst = binary.AppendUvarint(dst, h.Features)
	dst = binary.AppendUvarint(dst, uint64(h.Shards))
	dst = binary.AppendUvarint(dst, uint64(len(h.Cluster)))
	return append(dst, h.Cluster...)
}

// ParseHello decodes a CtrlHello payload: five mandatory uvarints and
// the cluster string. Trailing bytes are ignored — future versions may
// append fields — but a truncated or absurd hello is an error.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	var nodes, resources, shards, cluster uint64
	rest := payload
	for i, f := range [6]*uint64{&h.Version, &nodes, &resources, &h.Features, &shards, &cluster} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Hello{}, fmt.Errorf("wire: hello truncated at field %d", i)
		}
		*f = v
		rest = rest[n:]
	}
	if nodes > maxHelloShape || resources > maxHelloShape {
		return Hello{}, fmt.Errorf("wire: hello claims absurd shape %d/%d", nodes, resources)
	}
	if shards > MaxShards {
		return Hello{}, fmt.Errorf("wire: hello claims absurd shard count %d", shards)
	}
	if cluster > maxHelloCluster {
		return Hello{}, fmt.Errorf("wire: hello claims a %d-byte cluster string, limit %d", cluster, maxHelloCluster)
	}
	if uint64(len(rest)) < cluster {
		return Hello{}, fmt.Errorf("wire: hello truncated in its cluster string")
	}
	h.Nodes, h.Resources, h.Shards = int(nodes), int(resources), int(shards)
	h.Cluster = string(rest[:cluster])
	return h, nil
}

// maxRejectReason bounds a CtrlReject reason string.
const maxRejectReason = 256

// AppendReject appends a CtrlReject payload carrying a human-readable
// reason (truncated to maxRejectReason bytes).
func AppendReject(dst []byte, reason string) []byte {
	if len(reason) > maxRejectReason {
		reason = reason[:maxRejectReason]
	}
	dst = binary.AppendUvarint(dst, uint64(len(reason)))
	return append(dst, reason...)
}

// ParseReject decodes a CtrlReject payload.
func ParseReject(payload []byte) (string, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > maxRejectReason || uint64(len(payload)-k) < n {
		return "", fmt.Errorf("wire: malformed reject payload")
	}
	return string(payload[k : uint64(k)+n]), nil
}

// Control is one control element of the handshake.
type Control struct {
	Code    uint64
	Payload []byte
}

// ReadControl reads exactly one control element from br. Anything else
// (a frame, an envelope, garbage) is an error: neither end sends
// anything but a control before the handshake completes.
func ReadControl(br *bufio.Reader) (Control, error) {
	for _, marker := range [2]string{"batch", "control"} {
		b, err := binary.ReadUvarint(br)
		if err != nil {
			return Control{}, err
		}
		if b != 0 {
			return Control{}, fmt.Errorf("wire: expected a stream control, got a %s-position length %d", marker, b)
		}
	}
	code, err := binary.ReadUvarint(br)
	if err != nil {
		return Control{}, noEOF(err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Control{}, noEOF(err)
	}
	if n > maxControlPayload {
		return Control{}, fmt.Errorf("wire: stream control %d with %d-byte payload exceeds limit %d", code, n, maxControlPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Control{}, noEOF(err)
	}
	return Control{Code: code, Payload: payload}, nil
}

// ReadHelloReply is the dialer's half of the exchange once its hello,
// mine, is sent: the acceptor's one answer is either its own hello,
// returned if it passes mine.Check, or a reject, whose reason becomes
// the error. Anything else fails the handshake too.
func ReadHelloReply(br *bufio.Reader, mine Hello) (Hello, error) {
	ctl, err := ReadControl(br)
	if err != nil {
		return Hello{}, fmt.Errorf("hello reply: %w", err)
	}
	switch ctl.Code {
	case CtrlHello:
		peer, err := ParseHello(ctl.Payload)
		if err == nil {
			err = mine.Check(peer)
		}
		if err != nil {
			return Hello{}, err
		}
		return peer, nil
	case CtrlReject:
		reason, _ := ParseReject(ctl.Payload)
		return Hello{}, fmt.Errorf("handshake rejected: %s", reason)
	default:
		return Hello{}, fmt.Errorf("hello reply: got stream control %d", ctl.Code)
	}
}

// AcceptHello runs the acceptor's half of the exchange on a fresh
// connection: the dialer's first stream element must be a hello that
// parses, and answer decides on it — the hello to reply with, or why to
// refuse. A refusal (anything but a hello first included) is sent as a
// CtrlReject naming the reason and returned as the error; the caller
// closes the connection. A dialer that hangs up without sending a byte
// is io.EOF. On success the pair the connection runs under is returned:
// the hello sent back and the dialer's.
func AcceptHello(br *bufio.Reader, w io.Writer, answer func(peer Hello) (Hello, error)) (mine, peer Hello, err error) {
	ctl, err := ReadControl(br)
	if err == io.EOF {
		return Hello{}, Hello{}, err
	}
	switch {
	case err != nil:
		err = fmt.Errorf("hello required: %w", err)
	case ctl.Code != CtrlHello:
		err = fmt.Errorf("hello required: got stream control %d", ctl.Code)
	default:
		// The version gates the parse: what follows it is laid out as
		// that version says, so another version's hello is refused by its
		// first field and never read further.
		if v, n := binary.Uvarint(ctl.Payload); n > 0 && v != ProtoVersion {
			err = Hello{Version: ProtoVersion}.Check(Hello{Version: v})
		} else if peer, err = ParseHello(ctl.Payload); err == nil {
			mine, err = answer(peer)
		}
	}
	if err != nil {
		// Tell the dialer why before dying: its handshake is blocked on
		// this reply and would otherwise time out.
		w.Write(AppendControl(nil, CtrlReject, AppendReject(nil, err.Error())))
		return Hello{}, Hello{}, err
	}
	if _, err := w.Write(AppendControl(nil, CtrlHello, AppendHello(nil, mine))); err != nil {
		return Hello{}, Hello{}, fmt.Errorf("hello reply: %w", err)
	}
	return mine, peer, nil
}
