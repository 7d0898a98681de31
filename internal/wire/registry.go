package wire

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"mralloc/internal/network"
)

// EncodeFunc writes a message's payload. It is called only with
// messages of the concrete type registered for the kind, produced by
// the protocol itself, so it has no error path.
type EncodeFunc func(*Enc, network.Message)

// DecodeFunc reconstructs a message from a payload. Malformed input
// must be reported through the decoder's sticky error, never a panic.
type DecodeFunc func(*Dec) network.Message

// ReleaseFunc takes back a message its sender gave away and the last
// reader has encoded (transport.TCP's remote Send): the kind's codec
// may keep its storage for the next decode.
type ReleaseFunc func(network.Message)

type codec struct {
	enc EncodeFunc
	dec DecodeFunc
	rel ReleaseFunc // nil: the collector takes the message
}

var (
	regMu    sync.RWMutex
	registry = map[string]codec{}
	samples  []network.Message

	// Pooled codec scaffolding for AppendStream/DecodeStream. Pointers in
	// a sync.Pool cost no boxing allocation on Put.
	encPool = sync.Pool{New: func() any { return new(Enc) }}
	decPool = sync.Pool{New: func() any { return new(Dec) }}
)

// Register installs the codec for one message kind. Kinds whose Kind()
// string varies with message content (e.g. the request/token faces of
// one wrapped mutex message) register every string they can return,
// usually sharing one encoder/decoder pair. Registering a kind twice
// panics: kind strings are a global namespace.
func Register(kind string, enc EncodeFunc, dec DecodeFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("wire: kind %q registered twice", kind))
	}
	registry[kind] = codec{enc: enc, dec: dec}
}

// RegisterRelease installs the release func of a kind Register already
// installed. Only a kind whose messages no sender keeps or sends twice
// may have one: Release hands the message back to its codec for good.
func RegisterRelease(kind string, rel ReleaseFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	c, ok := registry[kind]
	if !ok {
		panic(fmt.Sprintf("wire: release func for unregistered kind %q", kind))
	}
	c.rel = rel
	registry[kind] = c
}

// Releasable reports whether m's kind has a release func.
func Releasable(m network.Message) bool { return release(m) != nil }

// Release hands m back to its kind's codec, which may refill its
// storage in a later decode; a kind without a release func leaves m to
// the collector. The caller must be m's last reader: whoever sent m
// gave it away, and nothing reads it once it is released.
func Release(m network.Message) {
	if rel := release(m); rel != nil {
		rel(m)
	}
}

func release(m network.Message) ReleaseFunc {
	regMu.RLock()
	c := registry[m.Kind()]
	regMu.RUnlock()
	return c.rel
}

// Copy returns a copy of m that shares no storage with it: m encoded
// and decoded again, with no Stream. A message that must be handed to
// two readers is handed to one as m and to the other as a Copy.
func Copy(m network.Message) (network.Message, error) {
	b, err := Append(nil, m)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// RegisterSamples adds representative messages to the shared corpus.
// The codec tests round-trip every sample and the fuzz targets use
// their encodings as seeds, so each registered kind should contribute
// at least one sample exercising its optional fields.
func RegisterSamples(msgs ...network.Message) {
	regMu.Lock()
	defer regMu.Unlock()
	samples = append(samples, msgs...)
}

// Registered reports whether kind has a codec.
func Registered(kind string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[kind]
	return ok
}

// Kinds lists every registered kind, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Samples returns fresh copies of the registered sample messages
// (Copy): a caller may send each once, as Env.Send gives a message
// away, without touching the corpus.
func Samples() []network.Message {
	regMu.RLock()
	out := append([]network.Message(nil), samples...)
	regMu.RUnlock()
	for i, m := range out {
		c, err := Copy(m)
		if err != nil {
			panic(fmt.Sprintf("wire: sample %d (%s) does not round-trip: %v", i, m.Kind(), err))
		}
		out[i] = c
	}
	return out
}

// Append encodes m — kind string, then payload — onto buf and returns
// the extended buffer. It fails only for unregistered kinds.
func Append(buf []byte, m network.Message) ([]byte, error) {
	return AppendStream(buf, m, nil)
}

// AppendStream is Append under a per-connection codec context: codecs
// that keep per-stream state (core's token deltas) read and update it
// through the encoder's Stream. A nil Stream yields the legacy
// encoding byte for byte.
func AppendStream(buf []byte, m network.Message, strm *Stream) ([]byte, error) {
	kind := m.Kind()
	regMu.RLock()
	c, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return buf, fmt.Errorf("wire: no codec registered for kind %q", kind)
	}
	// The encoder escapes through the registered EncodeFunc, so a local
	// one would be a heap allocation per message; a pooled one is not.
	e := encPool.Get().(*Enc)
	e.buf, e.strm = buf, strm
	e.String(kind)
	c.enc(e, m)
	buf = e.buf
	*e = Enc{}
	encPool.Put(e)
	return buf, nil
}

// Decode reconstructs the message encoded in b. The whole buffer must
// be consumed; trailing bytes are an error, as is any malformed field.
// Decode never panics, whatever b holds.
func Decode(b []byte) (network.Message, error) {
	return DecodeFor(b, 0, 0)
}

// DecodeFor is Decode plus cluster-shape validation (see NewDecFor):
// the transport layer of a running cluster uses it so that frames from
// a differently-configured or hostile peer fail the decode instead of
// crashing a protocol state machine on an out-of-range identifier.
func DecodeFor(b []byte, nodes, resources int) (network.Message, error) {
	return DecodeStream(b, nodes, resources, nil)
}

// DecodeStream is DecodeFor under a per-connection codec context — the
// decode-side dual of AppendStream. The connection loop owns the
// Stream and passes it for every frame of the connection; stateful
// codecs find their caches there.
func DecodeStream(b []byte, nodes, resources int, strm *Stream) (network.Message, error) {
	// Like the encoder, the decoder escapes through the registered
	// DecodeFunc. It goes back to the pool zeroed: it aliases the
	// caller's frame and the connection's Stream, and a sticky error or
	// an allocation charge left behind would fail the next decode.
	d := decPool.Get().(*Dec)
	*d = Dec{buf: b, nodes: nodes, resources: resources, strm: strm}
	m, err := decode(d)
	*d = Dec{}
	decPool.Put(d)
	return m, err
}

// SplitKind splits an encoded message into its kind's bytes and its
// payload, both aliasing b, and fails where Decode fails on the kind's
// length: for a connection loop that switches on the kind without
// building its string and parses the payload with a Dec of its own.
func SplitKind(b []byte) (kind, payload []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("wire: truncated or overlong kind length")
	}
	if n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("wire: kind length %d exceeds %d remaining bytes", n, len(b)-w)
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}

// decode reads the kind, then hands the rest of d to the kind's codec.
func decode(d *Dec) (network.Message, error) {
	n := d.Count()
	if d.err != nil {
		return nil, d.err
	}
	// The kind is looked up from the frame bytes (the compiler elides
	// the conversion in a map index); only the two error paths below
	// build the string.
	kind := d.buf[d.off : d.off+n]
	d.off += n
	regMu.RLock()
	c, ok := registry[string(kind)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown kind %q", string(kind))
	}
	m := c.dec(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %q payload", d.Remaining(), string(kind))
	}
	return m, nil
}
