package wire

import "encoding/binary"

// Stream framing, shared by every connection that carries wire
// messages — the peer transport (internal/transport) and the client
// port (internal/serve). One frame is a uvarint length prefix followed
// by that many payload bytes; what the payload holds (a routed peer
// message with sender/receiver header, a bare client message) is the
// stream's business, but the framing itself lives here so the sites
// can never diverge.

// AppendFrame appends payload as one frame onto dst, returning the
// extended buffer (pass a recycled buffer's [:0] to avoid allocating).
// An empty payload panics: its zero length prefix is the batch marker
// to a FrameReader, and every message encodes at least its kind, so
// only a program error produces one.
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) == 0 {
		panic("wire: empty frame payload")
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}
