package serve

import (
	"encoding/binary"

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
			x.Req = d.Uvarint()
			x.Node = d.Node()
			x.Resources = d.Int64s()
			x.DeadlineMS = d.Varint()
			if x.DeadlineMS < 0 {
				d.Fail("negative client deadline %d", x.DeadlineMS)
			}
			return x
		})
	wire.Register("Client.Grant",
		func(e *wire.Enc, m network.Message) {
			e.Uvarint(m.(ClientGrant).Req)
		},
		func(d *wire.Dec) network.Message {
			return ClientGrant{Req: d.Uvarint()}
		})
	wire.Register("Client.Release",
		func(e *wire.Enc, m network.Message) {
			e.Uvarint(m.(ClientRelease).Req)
		},
		func(d *wire.Dec) network.Message {
			return ClientRelease{Req: d.Uvarint()}
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
