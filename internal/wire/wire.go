// Package wire is the binary codec that puts protocol messages on a
// real network. Every network.Message type that may cross a process
// boundary registers an encoder and a decoder under its Kind string;
// the TCP transport (internal/transport) frames the encoded payload
// with a length prefix and the sender/receiver node identifiers.
//
// The codec is deliberately boring: varints, IEEE float bits, explicit
// field order, no reflection. What it is careful about is the untrusted
// direction — Decode must terminate without panicking on arbitrary
// bytes, so every length read is bounded by the remaining input (an
// element costs at least one byte) and every allocation is charged
// against a budget proportional to the input size. A frame that lies
// about its contents yields an error, never a crash or an OOM.
//
// Registration happens in init functions of the protocol packages
// (internal/core, internal/bouabdallah, internal/incremental), keeping
// the unexported message types where they belong. A package's messages are encodable exactly when the package
// is linked in.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// Stream carries per-connection codec state across frames: whatever a
// codec keeps for the life of the connection — the token delta caches of
// internal/core live here. One Stream serves one direction of one
// connection (and one shard of it), and exists iff the cluster runs
// such state (a feature bit both hellos carry): stateful codecs take a non-nil
// Stream as the decision. Encoding through a shared Stream from
// concurrent senders is safe (codecs guard their own state), decoding
// is single-goroutine per connection by construction.
//
// A nil *Stream is valid everywhere and means "no per-stream state":
// Append/Decode without a Stream produce exactly the stateless encoding.
type Stream struct {
	mu   sync.Mutex
	vals map[any]any
}

// NewStream returns an empty per-connection codec context.
func NewStream() *Stream { return &Stream{} }

// Value returns the stream's state under key, creating it with mk on
// first use (atomically — concurrent callers observe one instance).
// Codecs key with unexported struct types, so streams stay opaque
// across packages.
func (s *Stream) Value(key any, mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		s.vals = make(map[any]any)
	}
	v, ok := s.vals[key]
	if !ok {
		v = mk()
		s.vals[key] = v
	}
	return v
}

// MaxUniverse bounds the resource-universe size a decoded set may
// declare. It is far above any configuration this repository runs and
// exists only so that a hostile frame cannot demand a gigantic bitset.
const MaxUniverse = 1 << 20

// Enc is an append-only binary encoder. The zero value is ready to use;
// Bytes returns the accumulated buffer.
type Enc struct {
	buf  []byte
	strm *Stream // per-connection codec state; nil off-stream
}

// Stream reports the per-connection codec context this encode runs
// under (nil when encoding outside a connection, e.g. samples/tools).
func (e *Enc) Stream() *Stream { return e.strm }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset truncates the buffer, keeping its capacity for reuse.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Varint appends a zig-zag signed varint.
func (e *Enc) Varint(i int64) { e.buf = binary.AppendVarint(e.buf, i) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends the IEEE 754 bit pattern of f, little-endian.
func (e *Enc) F64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Node appends a node identifier (which may be network.None).
func (e *Enc) Node(id network.NodeID) { e.Varint(int64(id)) }

// Nodes appends a length-prefixed slice of node identifiers; a decoder
// reads it back with Count and one Site per entry.
func (e *Enc) Nodes(v []network.NodeID) {
	e.Uvarint(uint64(len(v)))
	for _, id := range v {
		e.Node(id)
	}
}

// Int64s appends a length-prefixed slice of signed integers.
func (e *Enc) Int64s(v []int64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Varint(x)
	}
}

// Message appends a nested message as a length-prefixed frame in the
// stateless (nil-Stream) encoding. Stateless on purpose: envelope
// kinds that may retransmit a frame (the transport's reliable-delivery
// layer) need re-encoding to be byte-identical and duplicates to be
// side-effect free, which per-stream codec state (delta caches) would
// break. Panics on an unregistered kind — the envelope's encoder is
// only ever handed messages the protocol itself produced.
func (e *Enc) Message(m network.Message) {
	b, err := Append(nil, m)
	if err != nil {
		panic(err)
	}
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Set appends a resource set: universe size, member count, then the
// members as deltas (ascending order makes deltas small).
func (e *Enc) Set(s resource.Set) {
	e.Uvarint(uint64(s.Universe()))
	e.Uvarint(uint64(s.Len()))
	prev := resource.ID(0)
	s.ForEach(func(id resource.ID) {
		e.Uvarint(uint64(id - prev))
		prev = id
	})
}

// Dec decodes a buffer written by Enc. Errors are sticky: after the
// first malformed field every subsequent read returns a zero value, so
// decoders can run straight through and check Err once at the end.
type Dec struct {
	buf []byte
	off int
	err error

	// alloc charges decoded allocations against a budget derived from
	// the input size, so short hostile inputs cannot demand huge memory.
	alloc int

	// nodes/resources, when positive, are the cluster shape inbound
	// frames must conform to: site ids in [0, nodes), resource ids in
	// [0, resources), set universes equal to resources. A frame from a
	// peer configured with a different shape then fails decoding
	// instead of crashing a protocol state machine on a bad index.
	nodes, resources int

	strm *Stream // per-connection codec state; nil off-stream
}

// Stream reports the per-connection codec context this decode runs
// under (nil when decoding outside a connection).
func (d *Dec) Stream() *Stream { return d.strm }

// NewDec starts decoding b. The decoder does not copy b; decoded
// messages may alias it, so callers must not reuse the buffer until the
// message is dead (the transport allocates a fresh frame per read).
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// NewDecFor is NewDec plus cluster-shape validation: nodes and
// resources bound the site and resource identifiers the input may
// carry (either may be 0 for "unchecked").
func NewDecFor(b []byte, nodes, resources int) *Dec {
	return &Dec{buf: b, nodes: nodes, resources: resources}
}

// Shape reports the cluster shape the decoder validates against
// (zeroes when unchecked), for codecs that validate vector lengths.
func (d *Dec) Shape() (nodes, resources int) { return d.nodes, d.resources }

// Err reports the first decoding error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining reports how many bytes are left to decode.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Rest returns the undecoded tail of the buffer (aliasing it), for
// framing layers that parse a header here and hand the payload on.
func (d *Dec) Rest() []byte { return d.buf[d.off:] }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Fail records a decoding error (keeping the first one), for message
// decoders that find a structurally valid but semantically impossible
// field — an out-of-range enum, say.
func (d *Dec) Fail(format string, args ...any) { d.fail(format, args...) }

// charge debits n bytes from the allocation budget, failing the decode
// when a frame demands memory out of proportion with its own size.
func (d *Dec) charge(n int) bool {
	d.alloc += n
	if d.alloc > 64*len(d.buf)+4096 {
		d.fail("allocation budget exceeded (%d bytes demanded by a %d-byte frame)", d.alloc, len(d.buf))
		return false
	}
	return true
}

// Charge debits n bytes from the decode's allocation budget on behalf
// of a message decoder about to preallocate (a slice of n/size
// elements, say). Decoders must call it before any length-driven make:
// Count only bounds a length by the remaining input, and element sizes
// amplify that by 10–100x. Reports false (failing the decode) when the
// budget is exhausted.
func (d *Dec) Charge(n int) bool { return d.charge(n) }

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return u
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	i, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return i
}

// Bool reads one byte; anything but 0 or 1 is an error.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("invalid bool byte %#x", b)
		return false
	}
	return b == 1
}

// F64 reads an IEEE 754 double.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return f
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Node reads a node identifier that may be network.None (a nil father
// pointer or lender). Under shape validation, anything else must be a
// real site.
func (d *Dec) Node() network.NodeID {
	id := network.NodeID(d.Varint())
	if d.err == nil && id != network.None && (id < 0 || (d.nodes > 0 && int(id) >= d.nodes)) {
		d.fail("node id %d outside cluster of %d", id, d.nodes)
		return network.None
	}
	return id
}

// Site reads a node identifier that must name a real site — request
// initiators, queue entries, token destinations. None is rejected even
// without shape validation: protocol code indexes per-site vectors and
// sends messages by these values.
func (d *Dec) Site() network.NodeID {
	id := network.NodeID(d.Varint())
	if d.err == nil && (id < 0 || (d.nodes > 0 && int(id) >= d.nodes)) {
		d.fail("site id %d outside cluster of %d", id, d.nodes)
		return 0
	}
	return id
}

// Res reads a resource identifier, bounds-checked against the universe
// under shape validation and non-negative always.
func (d *Dec) Res() resource.ID {
	id := resource.ID(d.Varint())
	if d.err == nil && (id < 0 || (d.resources > 0 && int(id) >= d.resources)) {
		d.fail("resource id %d outside universe of %d", id, d.resources)
		return 0
	}
	return id
}

// Count reads a slice length and validates it against the remaining
// input: every encoded element costs at least one byte, so a count
// larger than what is left is a lie.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail("count %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// Int64s reads a slice of signed integers; nil when empty.
func (d *Dec) Int64s() []int64 {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	if !d.charge(8 * n) {
		return nil
	}
	out := make([]int64, n)
	d.Varints(out)
	return out
}

// Varints fills dst with len(dst) signed integers: the body of an
// Int64s whose length the caller read with Count and whose storage it
// charged and cut itself, several vectors from one allocation.
func (d *Dec) Varints(dst []int64) {
	for i := range dst {
		dst[i] = d.Varint()
	}
}

// Message reads a nested message appended by Enc.Message, decoding it
// under the same cluster-shape validation as the envelope (but a fresh
// allocation budget proportional to the nested frame, and no Stream —
// see Enc.Message for why nested encodings are stateless). Returns nil
// and fails the decode on any malformed nested frame.
func (d *Dec) Message() network.Message {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	m, err := DecodeFor(b, d.nodes, d.resources)
	if err != nil {
		d.fail("nested message: %v", err)
		return nil
	}
	return m
}

// Set reads a resource set, validating the universe bound, the member
// count, and that members stay inside the universe in ascending order.
func (d *Dec) Set() resource.Set {
	m := d.Uvarint()
	if d.err != nil {
		return resource.Set{}
	}
	if m > MaxUniverse {
		d.fail("set universe %d exceeds limit %d", m, MaxUniverse)
		return resource.Set{}
	}
	if d.resources > 0 && m != 0 && m != uint64(d.resources) {
		d.fail("set universe %d in a cluster of %d resources", m, d.resources)
		return resource.Set{}
	}
	n := d.Count()
	if d.err != nil {
		return resource.Set{}
	}
	if uint64(n) > m {
		d.fail("set with %d members over universe %d", n, m)
		return resource.Set{}
	}
	if !d.charge(int(m)/8 + 1) {
		return resource.Set{}
	}
	s := resource.NewSet(int(m))
	id := uint64(0)
	for i := 0; i < n; i++ {
		delta := d.Uvarint()
		if d.err != nil {
			return resource.Set{}
		}
		if i > 0 && delta == 0 {
			d.fail("set members not strictly ascending")
			return resource.Set{}
		}
		id += delta
		if id >= m {
			d.fail("set member %d outside universe %d", id, m)
			return resource.Set{}
		}
		s.Add(resource.ID(id))
	}
	return s
}
