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
// into one length-prefixed unit, so a stream has two elements:
//
//	single frame:   uvarint(n), n > 0   then n payload bytes
//	batch envelope: uvarint(0)          the batch marker
//	                uvarint(env), env>0 total bytes of the enclosed frames
//	                env bytes           two or more frames, each
//	                                    uvarint(n>0) + n payload bytes
//
// A zero length prefix is impossible in the single-frame format (an
// empty payload cannot carry a message), which is what makes the batch
// marker unambiguous. The two elements coexist on one stream: a lone
// frame travels as a single frame, a backlog as one envelope. Empty
// frames inside an envelope and nested markers are malformed.
//
// A zero envelope length is impossible too (an envelope holds at least
// one frame), and that second marker is the control element of the
// handshake (hello.go): one hello each way before the first frame, and
// nothing the connection does is decided anywhere else. After the
// handshake a control marker is a stream error (ErrControl). This layout
// is a compatibility surface (see README "Wire path & batching" and
// "Payload path"): both the peer transport and the client port speak it.

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

// ErrControl is what a FrameReader returns for a control marker: the
// hello exchange is over by the time a FrameReader exists, and no build
// that passed it sends another control.
var ErrControl = errors.New("wire: stream control after the handshake")

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
// keep) before reading the next: the buffer is reused from frame to
// frame.
type FrameReader struct {
	br  *bufio.Reader
	max uint64
	env uint64 // bytes remaining in the current batch envelope
	buf []byte // reused frame buffer
}

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
	if fr.env == 0 {
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
			return nil, ErrControl
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
