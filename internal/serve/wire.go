package serve

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mralloc/internal/network"
	"mralloc/internal/wire"
)

// The client wire protocol: the message kinds external processes use
// to drive a cluster through a daemon's client port, as opposed to the
// peer protocol the nodes speak among themselves. Four kinds:
//
//	client → daemon: Client.Acquire, Client.Release
//	daemon → client: Client.Grant, Client.Deny
//
// Framing matches the peer transport (uvarint length prefix, then one
// wire-encoded message), but the streams never mix: peers connect to
// the peer port, clients to the client port.
//
// Releasing a request that has not been granted yet withdraws it —
// that is the protocol's cancellation. A client that disconnects
// implicitly withdraws/releases everything it held, so a crashed
// client cannot strand resources.
//
// Like every message that crosses a process boundary, these register
// codecs and fuzz samples in init (the PR 2 compatibility rule: field
// order is a compatibility surface, and TestSamplesCoverAllKinds fails
// any kind that skips registration).

// ClientAcquire asks the daemon to admit one acquisition.
type ClientAcquire struct {
	// Req is the client-chosen request identifier, unique among the
	// connection's in-flight requests; every response names it.
	Req uint64
	// Node targets a specific (locally hosted) protocol node;
	// network.None lets the daemon pick one round-robin.
	Node network.NodeID
	// Resources lists the resource identifiers to lock. A plain list,
	// not a bitset, so clients need not know the universe size M to
	// encode a request; the daemon validates and denies out-of-range
	// ids.
	Resources []int64
	// DeadlineMS, when positive, is the admission deadline in
	// milliseconds from the daemon's receipt — relative, because
	// client and daemon clocks need not agree. Feeds deadline-aware
	// policies; does not abort the request.
	DeadlineMS int64
}

// Kind implements network.Message.
func (ClientAcquire) Kind() string { return "Client.Acquire" }

// ClientGrant tells the client request Req entered its critical
// section: every requested resource is now held exclusively.
type ClientGrant struct {
	Req uint64
}

// Kind implements network.Message.
func (ClientGrant) Kind() string { return "Client.Grant" }

// ClientRelease ends (or withdraws, when not yet granted) request Req.
type ClientRelease struct {
	Req uint64
}

// Kind implements network.Message.
func (ClientRelease) Kind() string { return "Client.Release" }

// DenyCode classifies a denial so clients can react programmatically
// instead of parsing the human-readable reason.
type DenyCode uint8

const (
	// DenyGeneric covers bad arguments, backend errors, and shutdown.
	DenyGeneric DenyCode = iota
	// DenyOverloaded reports backpressure: the target node sheds at its
	// adaptive admission bound (ServerConfig.Overloaded), refusing new
	// work that could not meet its latency target rather than queueing
	// it. Clients see it as serve.ErrOverloaded and may try elsewhere
	// or later.
	DenyOverloaded

	denyCodeEnd // one past the last valid code
)

// ClientDeny tells the client request Req will never be granted, with
// a machine-readable code and a human-readable reason (bad arguments,
// overload, cluster shutting down, withdrawn).
type ClientDeny struct {
	Req    uint64
	Reason string
	Code   DenyCode
}

// Kind implements network.Message.
func (ClientDeny) Kind() string { return "Client.Deny" }

// The three kinds of an uncontended acquire's round trip are also
// encoded by hand, straight from what the sender has — a request's
// []int, a bare id — into the frame buffer: same bytes as wire.Append
// of the message (TestDirectEncodersMatchCodecs), without building the
// message, its []int64 or the interface it would travel in.

func appendKind(buf []byte, kind string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(kind))), kind...)
}

func appendAcquire(buf []byte, req uint64, node network.NodeID, resources []int, deadlineMS int64) []byte {
	buf = binary.AppendUvarint(appendKind(buf, "Client.Acquire"), req)
	buf = binary.AppendVarint(buf, int64(node))
	buf = binary.AppendUvarint(buf, uint64(len(resources)))
	for _, r := range resources {
		buf = binary.AppendVarint(buf, int64(r))
	}
	return binary.AppendVarint(buf, deadlineMS)
}

func appendGrant(buf []byte, req uint64) []byte {
	return binary.AppendUvarint(appendKind(buf, "Client.Grant"), req)
}

func appendRelease(buf []byte, req uint64) []byte {
	return binary.AppendUvarint(appendKind(buf, "Client.Release"), req)
}

// The same three kinds are decoded by hand on the read loops: one field
// parser per kind, which the registered decoders call too, and
// roundTrip, which splits a frame and parses it into storage the loop
// keeps from frame to frame (TestDirectDecodersMatchCodecs,
// FuzzClientPortDecode).

// parse reads an acquire's fields into x. The resource list goes into
// x.Resources' storage, grown when too small, under Dec.Int64s' rules:
// a count the input cannot hold and an allocation out of proportion
// with it are errors, and an empty list leaves nil storage nil.
func (x *ClientAcquire) parse(d *wire.Dec) {
	x.Req = d.Uvarint()
	x.Node = d.Node()
	x.Resources = x.Resources[:0]
	if n := d.Count(); n > 0 && d.Charge(8*n) {
		x.Resources = slices.Grow(x.Resources, n)[:n]
		d.Varints(x.Resources)
	}
	x.DeadlineMS = d.Varint()
	if x.DeadlineMS < 0 {
		d.Fail("negative client deadline %d", x.DeadlineMS)
	}
}

func (x *ClientGrant) parse(d *wire.Dec)   { x.Req = d.Uvarint() }
func (x *ClientRelease) parse(d *wire.Dec) { x.Req = d.Uvarint() }

// roundTripKind says which of a roundTrip's fields its last frame filled.
type roundTripKind uint8

const (
	otherKind roundTripKind = iota // any other kind: not parsed, wire.Decode's to read
	acquireKind
	releaseKind
	grantKind
)

// roundTrip is one frame of an acquire's round trip, parsed without
// building a message or the interface it would travel in. A read loop
// keeps one for its connection, so an acquire's resource list reuses
// the storage of the one before.
type roundTrip struct {
	kind    roundTripKind
	acquire ClientAcquire
	release ClientRelease
	grant   ClientGrant
}

// parse reads frame under the cluster shape (zeroes leave it
// unchecked) into the field its kind names, and fails exactly where
// wire.DecodeFor would fail on that kind: a malformed field, a bad node
// id, a negative deadline or trailing bytes. A frame of any other kind
// is left to wire.Decode; parse checks only its kind's length.
func (rt *roundTrip) parse(frame []byte, nodes, resources int) error {
	kind, payload, err := wire.SplitKind(frame)
	if err != nil {
		return err
	}
	d := wire.NewDecFor(payload, nodes, resources)
	switch string(kind) { // compared in place: no string is built
	case "Client.Acquire":
		rt.kind = acquireKind
		rt.acquire.parse(d)
	case "Client.Release":
		rt.kind = releaseKind
		rt.release.parse(d)
	case "Client.Grant":
		rt.kind = grantKind
		rt.grant.parse(d)
	default:
		rt.kind = otherKind
		return nil
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %q payload", d.Remaining(), kind)
	}
	return nil
}

func init() {
	wire.Register("Client.Acquire",
		func(e *wire.Enc, m network.Message) {
			x := m.(ClientAcquire)
			e.Uvarint(x.Req)
			e.Node(x.Node)
			e.Int64s(x.Resources)
			e.Varint(x.DeadlineMS)
		},
		func(d *wire.Dec) network.Message {
			var x ClientAcquire
			x.parse(d)
			return x
		})
	wire.Register("Client.Grant",
		func(e *wire.Enc, m network.Message) {
			e.Uvarint(m.(ClientGrant).Req)
		},
		func(d *wire.Dec) network.Message {
			var x ClientGrant
			x.parse(d)
			return x
		})
	wire.Register("Client.Release",
		func(e *wire.Enc, m network.Message) {
			e.Uvarint(m.(ClientRelease).Req)
		},
		func(d *wire.Dec) network.Message {
			var x ClientRelease
			x.parse(d)
			return x
		})
	wire.Register("Client.Deny",
		func(e *wire.Enc, m network.Message) {
			x := m.(ClientDeny)
			e.Uvarint(x.Req)
			e.String(x.Reason)
			e.Uvarint(uint64(x.Code))
		},
		func(d *wire.Dec) network.Message {
			x := ClientDeny{Req: d.Uvarint(), Reason: d.String()}
			code := d.Uvarint()
			if code >= uint64(denyCodeEnd) {
				d.Fail("unknown deny code %d", code)
			}
			x.Code = DenyCode(code)
			return x
		})

	wire.RegisterSamples(
		ClientAcquire{Req: 1, Node: 2, Resources: []int64{0, 3, 17}, DeadlineMS: 250},
		ClientAcquire{Req: 9, Node: network.None, Resources: []int64{5}},
		ClientGrant{Req: 1},
		ClientRelease{Req: 1},
		ClientDeny{Req: 9, Reason: "no resource 99"},
		ClientDeny{Req: 4, Reason: "node 1 admission queue full", Code: DenyOverloaded},
		ClientDeny{},
	)
}
