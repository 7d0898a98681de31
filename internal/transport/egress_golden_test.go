package transport_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	_ "mralloc/internal/core" // registers the LASS kinds and their samples
	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// egressTap relays one dialed connection to target and records every
// byte of the dial→target direction.
type egressTap struct {
	ln net.Listener
	mu sync.Mutex
	b  bytes.Buffer
}

func newEgressTap(t *testing.T, target string) *egressTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &egressTap{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", target)
		if err != nil {
			c.Close()
			return
		}
		go func() { io.Copy(c, up); c.Close() }()
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				tap.mu.Lock()
				tap.b.Write(buf[:n])
				tap.mu.Unlock()
				if _, werr := up.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		up.Close()
	}()
	return tap
}

func (tap *egressTap) bytes() []byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]byte(nil), tap.b.Bytes()...)
}

// canonical re-serialises the tapped stream element by element, in
// stream order, with every frame on its own: how the sender's flusher
// happened to group frames into envelopes depends on timing, the hello
// and the frames it sent do not. frames are the same frames, apart.
func (tap *egressTap) canonical(t *testing.T) (stream []byte, frames [][]byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(tap.bytes()))
	hello, err := wire.ReadControl(br)
	if err != nil || hello.Code != wire.CtrlHello {
		t.Fatalf("tapped stream opens with %+v (%v), want the hello", hello, err)
	}
	stream = wire.AppendControl(stream, hello.Code, hello.Payload)
	fr := wire.NewFrameReader(br, 1<<24)
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			return stream, frames
		}
		if err != nil {
			t.Fatalf("tapped stream: %v", err)
		}
		stream = wire.AppendFrame(stream, frame)
		frames = append(frames, append([]byte(nil), frame...))
	}
}

// egressCases are the pinned configurations: shard count × delta.
var egressCases = map[string]struct {
	g     int
	delta bool
}{
	"g1":       {1, false},
	"g1_delta": {1, true},
	"g3":       {3, false},
	"g3_delta": {3, true},
}

// TestEgressBytesGolden pins the wire format of one TCP link end to
// end: the hello and the frames of a fixed message sequence,
// compared in canonical form (every frame on its own, so the stream
// does not depend on flush timing; envelope headers are pinned by
// wire's batch and gather tests). UPDATE_EGRESS_GOLDEN=1 rewrites the
// goldens and is for a deliberate wire-format change only.
//
// Each case runs in a child process: delta-encoded tokens carry a
// process-wide cache epoch (core's deltaEpochs), so the bytes are only
// reproducible from a process that has encoded nothing else.
func TestEgressBytesGolden(t *testing.T) {
	if name := os.Getenv("EGRESS_GOLDEN_CASE"); name != "" {
		runEgressCase(t, name)
		return
	}
	for name := range egressCases {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestEgressBytesGolden$", "-test.count=1")
			cmd.Env = append(os.Environ(), "EGRESS_GOLDEN_CASE="+name)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
		})
	}
}

func runEgressCase(t *testing.T, name string) {
	c, ok := egressCases[name]
	if !ok {
		t.Fatalf("unknown egress case %q", name)
	}
	g := c.g
	// The recorded bytes are the first four LASS request/response
	// samples; samples added since ride the fuzz corpus only. A Send
	// gives its message away (TCP releases what it encoded), so each
	// round of each shard sends copies of its own, resp twice over.
	lass := func() (req, reqEmpty, resp, respSmall network.Message) {
		var ms []network.Message
		for _, m := range wire.Samples() {
			if k := m.Kind(); k == "LASS.Request" || k == "LASS.Response" {
				ms = append(ms, m)
			}
		}
		if len(ms) < 4 {
			t.Fatalf("want the 4 recorded LASS request/response samples, got %d", len(ms))
		}
		return ms[0], ms[1], ms[2], ms[3]
	}
	sizes := make([]int, g)
	for s := range sizes {
		sizes[s] = 8
	}
	w := transport.WireOptions{Delta: c.delta}
	b, err := transport.ListenTCP("127.0.0.1:0", 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := transport.ListenTCP("127.0.0.1:0", 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tap := newEgressTap(t, b.Addr())
	tapAddr := tap.ln.Addr().String()
	if err := a.Connect([]string{a.Addr(), a.Addr(), tapAddr, tapAddr}); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect([]string{a.Addr(), a.Addr(), b.Addr(), b.Addr()}); err != nil {
		t.Fatal(err)
	}
	var got sync.WaitGroup
	a.Configure(transport.Config{Shards: sizes, Wire: w}, discard)
	b.Configure(transport.Config{Shards: sizes, Wire: w}, func(transport.Link, network.Message) { got.Done() })
	// Two rounds so the second meets warm delta caches; every shard
	// sends the same tokens, so a cache shared across shards would show
	// up as different bytes.
	for round := 0; round < 2; round++ {
		for s := 0; s < g; s++ {
			got.Add(7)
			req, reqEmpty, resp, respSmall := lass()
			_, _, resp2, _ := lass()
			a.Send(transport.Link{Shard: s, From: 0, To: 2}, req)
			for _, m := range []network.Message{resp, reqEmpty, respSmall} {
				a.Send(transport.Link{Shard: s, From: 1, To: 3}, m)
			}
			a.Send(transport.Link{Shard: s, From: 0, To: 3}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: int64(round)})
			a.Send(transport.Link{Shard: s, From: 1, To: 2}, resp2)
			a.Send(transport.Link{Shard: s, From: 1, To: 2}, transporttest.Msg{K: transporttest.KindB, From: 1, Seq: int64(s)})
		}
	}
	done := make(chan struct{})
	go func() { got.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("deliveries timed out (a: %v, b: %v)", a.Err(), b.Err())
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "egress_"+name+".hex")
	stream, _ := tap.canonical(t)
	have := hex.EncodeToString(stream)
	if os.Getenv("UPDATE_EGRESS_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(have+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if have != strings.TrimSpace(string(want)) {
		t.Fatalf("egress bytes differ from the golden %s:\nhave %s\nwant %s", path, have, want)
	}
}
