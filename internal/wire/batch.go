package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Batch framing. The single-frame format of frame.go makes every
// message its own write; under load a sender has many frames queued for
// one connection, and flushing them one envelope at a time wastes a
// syscall per message. The batch envelope packs any number of frames
// into one length-prefixed unit, and the stream-control element lets a
// sender announce connection-scoped codec features in-band:
//
//	single frame:   uvarint(n), n > 0   then n payload bytes
//	batch envelope: uvarint(0)          the batch marker
//	                uvarint(env), env>0 total bytes of the enclosed frames
//	                env bytes           two or more frames, each
//	                                    uvarint(n>0) + n payload bytes
//	stream control: uvarint(0)          the batch marker
//	                uvarint(0)          the control marker
//	                uvarint(code)       which feature (Ctrl* constants)
//	                uvarint(k), k bytes code-specific payload
//
// A zero length prefix is impossible in the single-frame format (an
// empty payload cannot carry a message), which is what makes the batch
// marker unambiguous; a zero envelope length is impossible for a batch
// (an envelope holds at least one frame), which is what makes the
// control marker unambiguous in turn. The three elements coexist on one
// stream: a lone frame travels as a single frame, a backlog as one
// envelope. Empty frames inside an envelope and nested markers are
// malformed, and a control is only valid between stream elements, never
// inside an envelope. This layout is a compatibility surface (see
// README "Wire path & batching" and "Payload path"): both the peer
// transport and the client port speak it.

// MaxEnvelope caps the body of one batch envelope a writer emits.
// Readers enforce their own (usually larger) limit; the writer cap just
// keeps a deep send queue from producing an envelope a conforming
// reader would reject.
const MaxEnvelope = 1 << 20

// AppendBatch appends a batch envelope holding body — which must be a
// concatenation of valid frames (each produced by AppendFrame) — onto
// dst. It is the writer-side dual of FrameReader's envelope handling;
// the coalescing writer inlines the same layout.
func AppendBatch(dst, body []byte) []byte {
	dst = append(dst, 0) // batch marker: a zero uvarint
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// Stream-control codes. A control is addressed to the connection, not
// to a frame consumer: FrameReader surfaces it through OnControl and
// carries on with the next stream element.
//
// Forward-compatibility rule: controls are length-prefixed precisely
// so a reader can skip codes it does not know. A handler that returns
// ErrUnknownControl for an unrecognized code lets the stream continue
// (FrameReader counts the skip, see SkippedControls); future builds
// may therefore introduce new controls without breaking old decoders.
// Only a control the handler understands but finds malformed should
// fail the stream.
const (
	// CtrlTokenDelta announces that the sender's LASS.Response token
	// payloads on this stream use the delta-capable encoding of
	// internal/core (full snapshots and deltas discriminated per
	// token; epoch/seq stamps ride in the tokens themselves). Its
	// payload is empty. Senders emit it once, before the first frame.
	CtrlTokenDelta = 1
	// CtrlHello opens connection negotiation: version, cluster shape
	// and feature bits (see hello.go). It must be the dialer's first
	// stream element; the acceptor answers with its own hello or a
	// CtrlReject.
	CtrlHello = 2
	// CtrlReject refuses a handshake with a human-readable reason
	// (no hello, version or shape mismatch); the connection dies after
	// it.
	CtrlReject = 4
)

// ErrUnknownControl is returned by an OnControl handler to report a
// control code it does not recognize: FrameReader then skips the
// (already consumed, length-prefixed) control and continues the
// stream, counting the skip. Any other handler error fails the stream.
var ErrUnknownControl = errors.New("wire: unknown stream control")

// maxControlPayload bounds one control's payload; current controls
// carry none, and nothing legitimate ever needs much.
const maxControlPayload = 1 << 10

// AppendControl appends a stream-control element onto dst — the
// writer-side dual of FrameReader's OnControl.
func AppendControl(dst []byte, code uint64, payload []byte) []byte {
	dst = append(dst, 0, 0) // batch marker, then the control marker
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// uvarintLen reports how many bytes binary.AppendUvarint would use.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// FrameReader reads a stream of single frames and batch envelopes,
// yielding one frame at a time in stream order — batch boundaries are
// invisible to the caller, which is exactly what keeps FIFO delivery
// independent of how the sender coalesced.
//
// The slice returned by Next aliases an internal buffer that is reused
// by the following Next call: decode the frame (decoders copy what they
// keep) before reading the next. This is what removes the
// allocation-per-frame of the old ReadFrame path.
type FrameReader struct {
	br  *bufio.Reader
	max uint64
	env uint64 // bytes remaining in the current batch envelope
	buf []byte // reused frame buffer

	skipped uint64 // unknown controls skipped (forward compat)

	// onControl, when set, receives stream-control elements; returning
	// ErrUnknownControl skips the control (forward compat), any other
	// error fails the stream. A reader with no handler skips and counts
	// every control — the conservative forward-compatible default.
	onControl func(code uint64, payload []byte) error
}

// OnControl installs the stream-control handler (see AppendControl).
// Call it before the first Next.
func (fr *FrameReader) OnControl(fn func(code uint64, payload []byte) error) {
	fr.onControl = fn
}

// SkippedControls reports how many unknown stream controls the reader
// has skipped (the forward-compatibility path: no handler, or a
// handler returning ErrUnknownControl).
func (fr *FrameReader) SkippedControls() uint64 { return fr.skipped }

// NewFrameReader wraps r (buffered if it is not already), rejecting
// frames and envelopes larger than max.
func NewFrameReader(r io.Reader, max uint64) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{br: br, max: max}
}

// Next returns the next frame. A clean end-of-stream at a frame (and
// envelope) boundary surfaces as io.EOF; a stream ending anywhere else
// is io.ErrUnexpectedEOF. The returned slice is valid only until the
// next call.
func (fr *FrameReader) Next() ([]byte, error) {
	for fr.env == 0 {
		size, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return nil, err // io.EOF here is a clean end of stream
		}
		if size > 0 {
			if size > fr.max {
				return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", size, fr.max)
			}
			return fr.read(size)
		}
		// Batch marker: read the envelope header, then fall through to
		// the in-envelope path for the first frame.
		env, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return nil, noEOF(err)
		}
		if env == 0 {
			// Control marker: consume the control, then loop for the
			// next stream element — controls yield no frame.
			if err := fr.control(); err != nil {
				return nil, err
			}
			continue
		}
		if env > fr.max {
			return nil, fmt.Errorf("wire: batch envelope of %d bytes exceeds limit %d", env, fr.max)
		}
		fr.env = env
	}
	// Inside an envelope: every byte read, prefix included, is charged
	// against the envelope length so frames exactly fill it.
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, noEOF(err)
	}
	if size == 0 {
		return nil, fmt.Errorf("wire: empty frame inside a batch envelope")
	}
	cost := uint64(uvarintLen(size)) + size
	if cost > fr.env {
		return nil, fmt.Errorf("wire: frame of %d bytes overruns its batch envelope (%d left)", size, fr.env)
	}
	fr.env -= cost
	return fr.read(size)
}

// control reads one stream-control element (the two marker bytes are
// already consumed) and hands it to the handler.
func (fr *FrameReader) control() error {
	code, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return noEOF(err)
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return noEOF(err)
	}
	if n > maxControlPayload {
		return fmt.Errorf("wire: stream control %d with %d-byte payload exceeds limit %d", code, n, maxControlPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return noEOF(err)
	}
	if fr.onControl == nil {
		// Forward compatibility: a reader with no handler skips every
		// control. The length prefix makes that safe; erroring here
		// would let any future control break every old decoder.
		fr.skipped++
		return nil
	}
	err = fr.onControl(code, payload)
	if errors.Is(err, ErrUnknownControl) {
		fr.skipped++
		return nil
	}
	return err
}

// read fills the reused buffer with size payload bytes.
func (fr *FrameReader) read(size uint64) ([]byte, error) {
	if uint64(cap(fr.buf)) < size {
		fr.buf = make([]byte, size)
	}
	frame := fr.buf[:size]
	if _, err := io.ReadFull(fr.br, frame); err != nil {
		return nil, noEOF(err)
	}
	return frame, nil
}

// noEOF maps a mid-structure EOF to io.ErrUnexpectedEOF, so only a
// stream ending at a frame boundary reads as a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
