package wire

import (
	"bytes"
	"testing"
)

// TestFinishFrameLayout pins the owned-frame geometry: the length
// prefix lands right-aligned against the payload with at least
// headerReserve writable bytes before it for the envelope header.
func TestFinishFrameLayout(t *testing.T) {
	for _, size := range []int{1, 127, 128, 300, 70000} {
		buf := make([]byte, FrameDataOff, FrameDataOff+size)
		for i := 0; i < size; i++ {
			buf = append(buf, byte(i))
		}
		off := FinishFrame(buf)
		if off < headerReserve {
			t.Fatalf("size %d: frame start %d leaves less than headerReserve=%d", size, off, headerReserve)
		}
		frame := buf[off:]
		// The frame must parse as uvarint(size) + payload.
		got, err := NewFrameReader(bytes.NewReader(frame), 1<<20).Next()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got) != size {
			t.Fatalf("size %d: decoded %d payload bytes", size, len(got))
		}
	}
}
