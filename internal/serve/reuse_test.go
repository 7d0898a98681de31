package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/wire"
)

// TestDirectEncodersMatchCodecs: the hand-written encoders of the hot
// kinds produce exactly the bytes the registered codecs do.
func TestDirectEncodersMatchCodecs(t *testing.T) {
	for _, c := range []struct {
		m   network.Message
		got []byte
	}{
		{ClientAcquire{Req: 1, Node: 2, Resources: []int64{0, 3, 17}, DeadlineMS: 250},
			appendAcquire(nil, 1, 2, []int{0, 3, 17}, 250)},
		{ClientAcquire{Req: 1 << 40, Node: network.None, Resources: []int64{5}},
			appendAcquire(nil, 1<<40, network.None, []int{5}, 0)},
		{ClientAcquire{Req: 9, Node: 0, Resources: []int64{}},
			appendAcquire(nil, 9, 0, nil, 0)},
		{ClientGrant{Req: 300}, appendGrant(nil, 300)},
		{ClientRelease{Req: 1 << 33}, appendRelease(nil, 1<<33)},
	} {
		want, err := wire.Append(nil, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%#v: direct encoding %x, codec %x", c.m, c.got, want)
		}
	}
}

// TestDirectDecodersMatchCodecs: the read loops' parse of the hot kinds
// (roundTrip) accepts what the registered codecs accept, with the same
// fields, and rejects what they reject — the encoder cases above, then
// frames a conforming peer never sends. Each case is parsed into the one
// roundTrip, as a read loop parses one frame after another, and under
// the server's cluster shape as well as unchecked.
func TestDirectDecodersMatchCodecs(t *testing.T) {
	frames := [][]byte{
		appendAcquire(nil, 1, 2, []int{0, 3, 17}, 250),
		appendAcquire(nil, 1<<40, network.None, []int{5}, 0),
		appendAcquire(nil, 9, 0, nil, 0),
		appendGrant(nil, 300),
		appendRelease(nil, 1<<33),
		append(appendRelease(nil, 7), 0),                 // trailing byte
		append(appendGrant(nil, 7), 1, 2),                // trailing bytes
		appendAcquire(nil, 3, 5, []int{1}, 0),            // node 5 outside a 2-node cluster
		appendAcquire(nil, 3, -7, []int{1}, 0),           // negative node id other than None
		appendAcquire(nil, 3, 1, []int{1}, -1),           // negative deadline
		appendAcquire(nil, 3, 1, []int{1, 2, 3}, 0)[:20], // truncated list
		{3, 'C', 'l'}, // kind longer than the frame
		append(appendKind(nil, "Client.Acquire"), 1, 0, 200), // count beyond the input
		appendKind(nil, "Client.Release"),                    // no request id
		appendKind(nil, "Client.Nope"),                       // unknown kind
	}
	for _, m := range wire.Samples() {
		if b, err := wire.Append(nil, m); err == nil && strings.HasPrefix(m.Kind(), "Client.") {
			frames = append(frames, b)
		}
	}
	var rt roundTrip
	for _, b := range frames {
		for _, shape := range [][2]int{{0, 0}, {2, 8}} {
			if err := agree(&rt, b, shape[0], shape[1]); err != nil {
				t.Errorf("%x under shape %v: %v", b, shape, err)
			}
		}
	}
}

// FuzzClientPortDecode: on any input, the read loops' parse and the
// registered codecs accept and reject alike, and agree on every field.
// One roundTrip parses every input of a run, so a field the previous
// frame left behind shows as a disagreement.
func FuzzClientPortDecode(f *testing.F) {
	for _, m := range wire.Samples() {
		if b, err := wire.Append(nil, m); err == nil && strings.HasPrefix(m.Kind(), "Client.") {
			f.Add(b)
			f.Add(append(b, 0))
			f.Add(b[:len(b)-1])
		}
	}
	f.Add(appendAcquire(nil, 3, 1, []int{1}, -1))
	f.Add(appendAcquire(nil, 3, 5, []int{1}, 0))
	var rt roundTrip
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, shape := range [][2]int{{0, 0}, {2, 8}} {
			if err := agree(&rt, b, shape[0], shape[1]); err != nil {
				t.Fatalf("shape %v: %v", shape, err)
			}
		}
	})
}

// agree parses b with rt and decodes it with wire.DecodeFor under one
// shape, and reports how the two differ.
func agree(rt *roundTrip, b []byte, nodes, resources int) error {
	direct := rt.parse(b, nodes, resources)
	m, codec := wire.DecodeFor(b, nodes, resources)
	if direct == nil && rt.kind == otherKind {
		switch m.(type) {
		case ClientAcquire, ClientRelease, ClientGrant:
			return fmt.Errorf("codec decodes %#v, which the direct parse leaves to it", m)
		}
		return nil // the read loop hands the frame to the codec
	}
	if direct != nil || codec != nil {
		if (direct == nil) != (codec == nil) {
			return fmt.Errorf("direct parse error %v, codec error %v", direct, codec)
		}
		return nil
	}
	var got network.Message
	switch rt.kind {
	case acquireKind:
		x, ok := m.(ClientAcquire)
		if !ok || x.Req != rt.acquire.Req || x.Node != rt.acquire.Node || x.DeadlineMS != rt.acquire.DeadlineMS ||
			!slices.Equal(x.Resources, rt.acquire.Resources) {
			return fmt.Errorf("direct parse %#v, codec %#v", rt.acquire, m)
		}
		return nil
	case releaseKind:
		got = rt.release
	case grantKind:
		got = rt.grant
	}
	if m != got {
		return fmt.Errorf("direct parse %#v, codec %#v", got, m)
	}
	return nil
}

// fixedSession grants at once and allocates nothing doing so.
type fixedSession struct{ release func() }

func (s fixedSession) Acquire(context.Context, AcquireOpts) (func(), error) { return s.release, nil }
func (fixedSession) Close()                                                 {}

// keptSession grants at once and hands each acquire's options to the
// test: their resource list is the request record's own storage.
type keptSession struct{ got chan AcquireOpts }

func (s keptSession) Acquire(_ context.Context, o AcquireOpts) (func(), error) {
	s.got <- o
	return func() {}, nil
}
func (keptSession) Close() {}

// TestAcquireKeepsDistinctResources: a request record keeps its
// resource list while its connection lives, so it must keep the
// distinct ids only. One maximal frame naming resource 0 1 048 512
// times is granted as {0}, its record's list has room for no more than
// the universe, and the admission oracle is asked about one resource.
func TestAcquireKeepsDistinctResources(t *testing.T) {
	const resources = 8
	sess := keptSession{got: make(chan AcquireOpts, 1)}
	var asked atomic.Int64
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 1, Resources: resources, Local: []int{0},
		Open:       func(int) (BackendSession, error) { return sess, nil },
		Overloaded: func(_, size int) bool { asked.Store(int64(size)); return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := wire.Hello{Version: wire.ProtoVersion}
	if _, err := nc.Write(wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, hello))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, err := wire.ReadHelloReply(br, hello); err != nil {
		t.Fatal(err)
	}
	zeros := make([]int, maxClientFrame-64)
	if _, err := nc.Write(wire.AppendFrame(nil, appendAcquire(nil, 1, 0, zeros, 0))); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.NewFrameReader(br, maxClientFrame).Next()
	if err != nil {
		t.Fatal(err)
	}
	var rt roundTrip
	if err := rt.parse(frame, 1, resources); err != nil || rt.kind != grantKind || rt.grant.Req != 1 {
		t.Fatalf("answer %q (%v), want the grant of request 1", frame, err)
	}
	got := <-sess.got
	if !slices.Equal(got.Resources, []int{0}) || cap(got.Resources) > resources {
		t.Errorf("granted %d ids, first %v, with room for %d; want [0] and room for at most %d",
			len(got.Resources), got.Resources[:min(len(got.Resources), resources)], cap(got.Resources), resources)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("admission oracle asked about %d resources, want 1", n)
	}
}

// TestClientPortAllocs pins one Acquire→release through a loopback
// client port, client and server counted separately: the server side
// is measured alone by driving it with prebuilt frames over a raw
// connection (the driver allocates nothing), the client side is what a
// real Client adds on top. Request ids sit above 255 on both sides, as
// they do in any connection's steady state — below that the runtime
// boxes a one-word message without allocating.
//
// The round trip's frames are encoded and decoded by hand, so the
// server allocates nothing. What is left on the client is the release
// closure Acquire returns: it carries the grant's request id and
// generation, and the public Acquire returns a func().
func TestClientPortAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	sess := fixedSession{release: func() {}}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 2, Resources: 8, Local: []int{0, 1},
		Open: func(int) (BackendSession, error) { return sess, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := wire.Hello{Version: wire.ProtoVersion}
	if _, err := nc.Write(wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, hello))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, err := wire.ReadHelloReply(br, hello); err != nil {
		t.Fatal(err)
	}
	const id = 1000
	acquire := wire.AppendFrame(nil, appendAcquire(nil, id, network.None, []int{1, 6}, 0))
	release := wire.AppendFrame(nil, appendRelease(nil, id))
	fr := wire.NewFrameReader(br, maxClientFrame)
	server := testing.AllocsPerRun(300, func() {
		if _, err := nc.Write(acquire); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Next(); err != nil { // the grant
			t.Fatal(err)
		}
		// The release is read before the next round's acquire, so the id
		// is free again by then.
		if _, err := nc.Write(release); err != nil {
			t.Fatal(err)
		}
	})
	if server > 0 {
		t.Errorf("server side: %v allocs per acquire+release, budget 0", server)
	}

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.mu.Lock()
	cl.next = id
	cl.mu.Unlock()
	ctx := context.Background()
	resources := []int{1, 6} // the caller's, as in any loop that acquires computed sets
	both := testing.AllocsPerRun(300, func() {
		release, err := cl.Acquire(ctx, AnyNode, resources...)
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	t.Logf("server side %v, client side %v allocs per acquire+release", server, both-server)
	if client := both - server; client > 1 {
		t.Errorf("client side: %v allocs per acquire+release (%v with the server's %v), budget 1", client, both, server)
	}
}

// TestHazardStaleClientRelease: a Client release func belongs to one
// grant. Its pending entry goes on to later requests, so a repeated or
// late call must not release whatever the entry is carrying by then.
func TestHazardStaleClientRelease(t *testing.T) {
	b := &ledger{t: t}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 2, Resources: 8, Local: []int{0, 1},
		Open: b.open,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	first, err := cl.Acquire(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first()
	first()
	second, err := cl.Acquire(ctx, 0, 1) // the same pending entry, a new request id
	if err != nil {
		t.Fatal(err)
	}
	first()
	// The connection is read in order: once a later round trip is done,
	// a release the stale call had sent would have been handled.
	third, err := cl.Acquire(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Sessions(); n != 2 {
		t.Fatalf("%d requests in flight after a stale release call, want the 2 held", n)
	}
	second()
	third()
	eventually(t, "both releases to land", func() bool { return srv.Sessions() == 0 })
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.granted != 3 || b.released != 3 {
		t.Errorf("%d grants, %d releases, want 3 and 3", b.granted, b.released)
	}
}

// ledger is a backend that keeps the books the server's reuse of
// records and sessions must balance: every session opened is closed
// exactly once and never used afterwards, at most one acquisition runs
// on a session at a time, and every grant is released exactly once.
type ledger struct {
	t *testing.T

	mu       sync.Mutex
	gate     chan struct{} // non-nil: acquisitions block until it closes
	sessions []*ledgerSession
	blocked  int
	granted  int
	released int
}

type ledgerSession struct {
	b      *ledger
	busy   bool
	closed int
}

func (b *ledger) open(int) (BackendSession, error) {
	s := &ledgerSession{b: b}
	b.mu.Lock()
	b.sessions = append(b.sessions, s)
	b.mu.Unlock()
	return s, nil
}

func (s *ledgerSession) Acquire(ctx context.Context, opts AcquireOpts) (func(), error) {
	b := s.b
	b.mu.Lock()
	if s.closed > 0 {
		b.t.Error("Acquire on a closed session")
	}
	if s.busy {
		b.t.Error("overlapping Acquires on one session")
	}
	s.busy = true
	gate := b.gate
	b.blocked++
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		s.busy = false
		b.blocked--
		b.mu.Unlock()
	}()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b.mu.Lock()
	b.granted++
	b.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			b.released++
			b.mu.Unlock()
		})
	}, nil
}

func (s *ledgerSession) Close() {
	s.b.mu.Lock()
	s.closed++
	s.b.mu.Unlock()
}

// TestHazardTeardownEveryState drops a connection that has a request
// record in every state at once — idle on a free list with its session
// open, granted and held, blocked in the backend, withdrawn but not yet
// unwound — and balances the ledger afterwards.
func TestHazardTeardownEveryState(t *testing.T) {
	check := leakcheck.Check(t)
	b := &ledger{t: t}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 3, Resources: 8, Local: []int{0, 1, 2},
		Open: b.open,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Idle: a finished round trip per node leaves a record (and its
	// session) on every free list.
	for node := 0; node < 3; node++ {
		release, err := cl.Acquire(ctx, node, 0)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	eventually(t, "the warm-up releases to land", func() bool { return srv.Sessions() == 0 })
	// Granted and held.
	if _, err := cl.Acquire(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Blocked in the backend, on an explicit node and on nodes the daemon
	// picks; and a request withdrawn while blocked.
	b.mu.Lock()
	b.gate = make(chan struct{})
	b.mu.Unlock()
	go cl.Acquire(ctx, 1, 2)
	go cl.Acquire(ctx, AnyNode, 3)
	go cl.Acquire(ctx, AnyNode, 4)
	withdrawn, cancel := context.WithCancel(ctx)
	go cl.Acquire(withdrawn, 2, 5)
	eventually(t, "every request to be admitted", func() bool { return srv.Sessions() == 5 })
	eventually(t, "the acquisitions to block in the backend", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.blocked == 4
	})
	cancel()

	cl.Close()
	eventually(t, "the server to unwind the connection", func() bool { return srv.Sessions() == 0 })
	for node := 0; node < 3; node++ {
		if n := srv.QueueLen(node); n != 0 {
			t.Errorf("node %d still counts %d waiting requests", node, n)
		}
	}
	srv.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.sessions {
		if s.closed != 1 {
			t.Errorf("session %d closed %d times", i, s.closed)
		}
	}
	if b.granted != b.released {
		t.Errorf("%d grants, %d releases", b.granted, b.released)
	}
	check()
}

// TestHazardRecordReuseAcrossStates runs one connection through rounds
// that end a request every way a request can end — released, withdrawn
// while blocked, denied by the backend's context error — so records
// cycle through the free lists between differently-ended requests, and
// checks each round's outcome and the ledger.
func TestHazardRecordReuseAcrossStates(t *testing.T) {
	b := &ledger{t: t}
	srv, err := NewServer(ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 2, Resources: 8, Local: []int{0, 1},
		Open: b.open,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < 50; round++ {
		// Granted, released twice.
		release, err := cl.Acquire(context.Background(), AnyNode, round%8)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		release()
		release()
		// Withdrawn while blocked in the backend: the record's context is
		// cancelled, so its Done channel is replaced before the next use.
		gate := make(chan struct{})
		b.mu.Lock()
		b.gate = gate
		b.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if _, err := cl.Acquire(ctx, AnyNode, 1); err == nil {
			t.Fatalf("round %d: blocked acquire was granted", round)
		}
		cancel()
		b.mu.Lock()
		b.gate = nil
		b.mu.Unlock()
		close(gate)
		eventually(t, "the withdrawn request to unwind", func() bool { return srv.Sessions() == 0 })
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.granted != b.released {
		t.Errorf("%d grants, %d releases", b.granted, b.released)
	}
	if n := len(b.sessions); n > 4 {
		t.Errorf("%d sessions opened for a client that never had two requests in flight", n)
	}
}
