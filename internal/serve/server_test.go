package serve_test

import (
	"bufio"
	"errors"
	"io"
	"net"

	"context"
	"fmt"
	"math/rand"
	"mralloc/internal/wire"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/leakcheck"
	"mralloc/internal/live"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
)

// startServer brings up a live cluster and a client-port server over
// it — the in-process version of what cmd/mrallocd assembles.
func startServer(t *testing.T, nodes, m int, policy serve.Policy) (*live.Cluster, *serve.Server) {
	t.Helper()
	c, err := live.New(live.Config{Nodes: nodes, Resources: m, Policy: policy}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, nodes)
	for i := range local {
		local[i] = i
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen:    "127.0.0.1:0",
		Nodes:     nodes,
		Resources: m,
		Local:     local,
		Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

func TestClientAcquireReleaseRoundTrip(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release, err := cl.Acquire(context.Background(), 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent
	// AnyNode round-robins over hosted nodes.
	for i := 0; i < 4; i++ {
		rel, err := cl.Acquire(context.Background(), serve.AnyNode, i%4)
		if err != nil {
			t.Fatalf("AnyNode acquire %d: %v", i, err)
		}
		rel()
	}
}

func TestClientDenials(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Acquire(context.Background(), 0, 99); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Errorf("out-of-range resource: %v, want denial", err)
	}
	if _, err := cl.Acquire(context.Background(), 1, 0); err != nil {
		t.Errorf("valid acquire after denial: %v", err)
	} else {
		// Held grants are fine to leak here; Close releases them.
	}
	if _, err := cl.Acquire(context.Background(), 0); err == nil {
		t.Error("empty resource set accepted")
	}
}

// TestClientCancelWithdraws: a context canceled while the request is
// queued must withdraw it server-side, leaving the resource available.
func TestClientCancelWithdraws(t *testing.T) {
	_, srv := startServer(t, 1, 1, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Acquire(ctx, 0, 0); err == nil {
		t.Fatal("expected context error")
	}
	release()
	// The withdrawn request must not hold the resource hostage.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rel2, err := cl.Acquire(ctx2, 0, 0)
	if err != nil {
		t.Fatalf("resource never freed after withdrawal: %v", err)
	}
	rel2()
}

// TestClientDisconnectReleases: dropping a connection must release its
// grants and withdraw its queued requests — a crashed client cannot
// strand resources.
func TestClientDisconnectReleases(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	clA, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Acquire(context.Background(), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	clB, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	queued := make(chan error, 1)
	go func() {
		rel, err := clB.Acquire(context.Background(), 0, 0)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	time.Sleep(50 * time.Millisecond)
	clA.Close() // holds r0+r1, and takes its pending state with it
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("B's acquire after A's disconnect: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A's grant never released after disconnect")
	}
}

// TestClientServerClose: closing the server must unwind in-flight
// client requests and leak nothing.
func TestClientServerClose(t *testing.T) {
	defer leakcheck.Check(t)()
	c, err := live.New(live.Config{Nodes: 1, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0},
		Open: func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Acquire(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := cl.Acquire(context.Background(), 0, 0)
		blocked <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("blocked acquire succeeded across server close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked acquire never unblocked on server close")
	}
	// The cluster behind the server must still be healthy.
	rel, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("cluster broken after server close: %v", err)
	}
	rel()
}

// TestClientProtocolStress is the acceptance battery: ≥64 concurrent
// client sessions per node driving the cluster through the client
// wire protocol, every grant/release checked by verify.Monitor (each
// client goroutine gets a synthetic site id, so hypothesis-4 and
// safety are checked per session), zero violations and no starvation
// (every acquire completes within the generous timeout).
func TestClientProtocolStress(t *testing.T) {
	const nodes, m, perNode = 2, 8, 64
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for _, policy := range []serve.Policy{serve.FIFO, serve.SSF} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			_, srv := startServer(t, nodes, m, policy)
			var monMu sync.Mutex
			now := sim.Wall().Now
			mon := verify.New(m, func(v verify.Violation) { t.Errorf("%v", v) })

			// A handful of connections, many sessions each: the wire
			// multiplexing is part of what is under test.
			const conns = 4
			clients := make([]*serve.Client, conns)
			for i := range clients {
				cl, err := serve.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				clients[i] = cl
			}

			var wg sync.WaitGroup
			total := nodes * perNode
			for s := 0; s < total; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					sid := network.NodeID(s)
					node := s % nodes
					cl := clients[s%conns]
					rng := rand.New(rand.NewSource(int64(s)*6151 + 7))
					for i := 0; i < iters; i++ {
						rs := resource.Sample(rng, m, 1+rng.Intn(3))
						ids := make([]int, 0, rs.Len())
						rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

						monMu.Lock()
						mon.Requested(sid, now())
						monMu.Unlock()

						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
						release, err := cl.AcquireWith(ctx, node, serve.AcquireOpts{
							Resources: ids,
							Deadline:  time.Now().Add(time.Duration(1+rng.Intn(500)) * time.Millisecond),
						})
						cancel()
						if err != nil {
							t.Errorf("session %d iter %d: %v (liveness)", s, i, err)
							return
						}
						monMu.Lock()
						mon.Granted(sid, rs, now())
						monMu.Unlock()

						if d := rng.Intn(100); d > 0 {
							time.Sleep(time.Duration(d) * time.Microsecond)
						}

						monMu.Lock()
						mon.Released(sid, rs, now())
						monMu.Unlock()
						release()
					}
				}()
			}
			wg.Wait()
			monMu.Lock()
			defer monMu.Unlock()
			mon.CheckQuiescent(now())
			if got, want := mon.Grants(), total*iters; got != want {
				t.Errorf("monitor saw %d grants, want %d", got, want)
			}
		})
	}
}

// TestMaxQueueDeniesWithOverloaded: while the Overloaded oracle sheds,
// an acquire must be denied immediately with the distinct overload code
// (errors.Is ErrOverloaded on the client) and reported to NoteShed;
// QueueLen counts the requests waiting behind a held grant; and once
// the oracle stops shedding, acquires are admitted again.
func TestMaxQueueDeniesWithOverloaded(t *testing.T) {
	const queued = 2
	c, err := live.New(live.Config{Nodes: 1, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var shedding atomic.Bool
	var noted atomic.Int64
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0},
		Open:       func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
		Overloaded: func(node, size int) bool { return shedding.Load() },
		NoteShed:   func(node int) { noted.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Hold the only resource so everything behind it queues.
	release, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			rel, err := cl.Acquire(context.Background(), 0, 0)
			if err == nil {
				rel()
			}
			results <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueLen(0) < queued {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", srv.QueueLen(0), queued)
		}
		time.Sleep(time.Millisecond)
	}
	// While the oracle sheds, one more must bounce with the overload
	// code, not queue, and the shed must be noted.
	shedding.Store(true)
	if _, err := cl.Acquire(context.Background(), 0, 0); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("acquire while shedding: %v, want ErrOverloaded", err)
	}
	if n := noted.Load(); n != 1 {
		t.Fatalf("NoteShed called %d times, want 1", n)
	}
	if n := srv.QueueLen(0); n != queued {
		t.Fatalf("QueueLen %d after a shed, want %d: the shed request queued", n, queued)
	}
	// Drain: the oracle stops shedding, the held grant releases, the
	// queued pair completes, and new work is admitted.
	shedding.Store(false)
	release()
	for i := 0; i < queued; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("queued acquire failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued acquire never completed")
		}
	}
	if n := srv.QueueLen(0); n != 0 {
		t.Fatalf("QueueLen %d after the queue drained", n)
	}
	rel, err := cl.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	rel()
}

// TestServerValidation: nonsense configurations must be rejected.
func TestServerValidation(t *testing.T) {
	open := func(int) (serve.BackendSession, error) { return nil, fmt.Errorf("unused") }
	bad := []serve.ServerConfig{
		{Listen: "127.0.0.1:0", Nodes: 0, Resources: 1, Local: []int{0}, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{3}, Open: open},
		{Listen: "127.0.0.1:0", Nodes: 1, Resources: 1, Local: []int{0}},
	}
	for i, cfg := range bad {
		if srv, err := serve.NewServer(cfg); err == nil {
			srv.Close()
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDuplicateRequestIDKillsConnection: reusing an in-flight request
// id is a protocol violation — a deny would carry the original
// request's id and strand its eventual grant — so the server must
// drop the connection and unwind everything it held.
func TestDuplicateRequestIDKillsConnection(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fr := helloRaw(t, nc)
	sendRaw := func(m network.Message) {
		payload, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
	}
	sendRaw(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{0}})
	// Wait for the grant so request 7 holds resource 0. The server may
	// coalesce responses, so read through the batch-aware reader.
	frame, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Decode(frame); err != nil {
		t.Fatal(err)
	} else if g, ok := m.(serve.ClientGrant); !ok || g.Req != 7 {
		t.Fatalf("expected grant for req 7, got %#v", m)
	}
	// Reuse the id: the connection must die...
	sendRaw(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{1}})
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := fr.Next(); err == nil {
		t.Fatal("connection survived a duplicate request id")
	}
	// ...and the teardown must release the grant it held.
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := cl.Acquire(ctx, 0, 0)
	if err != nil {
		t.Fatalf("resource 0 stranded after the violating connection died: %v", err)
	}
	release()
}

// TestClientLearnsShape: the hello reply carries the cluster shape, so
// a client needs no out-of-band N or M.
func TestClientLearnsShape(t *testing.T) {
	_, srv := startServer(t, 3, 7, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hello, err := cl.Hello(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Nodes != 3 || hello.Resources != 7 {
		t.Fatalf("learned shape %d/%d, want 3/7", hello.Nodes, hello.Resources)
	}
}

// TestUnionAcquire: holding several sets is one Acquire of their union
// — wider than the hosted-node count and overlapping alike, on one node
// in one round trip — and a union with one bad member is denied whole,
// stranding nothing.
func TestUnionAcquire(t *testing.T) {
	_, srv := startServer(t, 2, 6, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// {0,1} ∪ {1,2} ∪ {3,4,5}: three sets, two nodes, one shared member.
	release, err := cl.Acquire(ctx, serve.AnyNode, 0, 1, 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := cl.Acquire(ctx, serve.AnyNode, 0, 99, 1); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("union with a bad member: %v, want denial", err)
	}
	for _, set := range [][]int{{0, 1}, {1, 2}, {3, 4, 5}} {
		rel, err := cl.Acquire(ctx, serve.AnyNode, set...)
		if err != nil {
			t.Fatalf("set %v stranded: %v", set, err)
		}
		rel()
	}
}

// TestClientPortRequiresHello: a client whose first stream element is
// a request, not a hello, draws CtrlReject("hello required") and a
// closed connection; the request is never admitted.
func TestClientPortRequiresHello(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload, err := wire.Append(nil, serve.ClientAcquire{Req: 1, Node: 0, Resources: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	if reason := wantReject(t, nc); !strings.Contains(reason, "hello required") {
		t.Fatalf("reject reason %q", reason)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d requests admitted ahead of the hello", n)
	}
}

// TestClientPortControlAfterHandshake: once the hello is answered the
// client port takes frames and envelopes only. A control — a second
// hello, or a code of another build — kills the connection: the acquire
// behind it is never answered, and the grant the connection held is
// handed back.
func TestClientPortControlAfterHandshake(t *testing.T) {
	for name, ctl := range map[string][]byte{
		"second hello":    clientHello(),
		"unknown control": wire.AppendControl(nil, 1, nil),
	} {
		t.Run(name, func(t *testing.T) {
			_, srv := startServer(t, 1, 2, serve.FIFO)
			rc := dialRaw(t, srv.Addr())
			rc.send(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{0}})
			rc.wantGrant(7)
			behind, err := wire.Append(nil, serve.ClientAcquire{Req: 8, Node: 0, Resources: []int64{1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rc.nc.Write(wire.AppendFrame(append([]byte(nil), ctl...), behind)); err != nil {
				t.Fatal(err)
			}
			rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			if frame, err := rc.fr.Next(); err != io.EOF {
				t.Fatalf("connection survived a control after the handshake: frame %x, err %v", frame, err)
			}
			cl, err := serve.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			release, err := cl.Acquire(ctx, 0, 0, 1)
			if err != nil {
				t.Fatalf("resources stranded after the violating connection died: %v", err)
			}
			release()
		})
	}
}

// TestClientPortSilentDialerDropped: a connection that never sends its
// hello is told why and dropped when the handshake timeout passes, where
// it used to hold its goroutine and descriptor until Close.
func TestClientPortSilentDialerDropped(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reason := wantReject(t, nc)
	if !strings.Contains(reason, "hello required") || !strings.Contains(reason, "timeout") {
		t.Fatalf("reject reason %q, want the hello required and the timeout named", reason)
	}
}

// TestClientPortRejectsBadVersion: a hello from an incompatible build —
// a future one, or the previous build's six-field v2 hello byte for
// byte — draws a CtrlReject naming the version, then the connection
// dies.
func TestClientPortRejectsBadVersion(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	future := wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion + 9})
	for _, tc := range []struct {
		hello []byte
		want  string
	}{
		{wire.AppendControl(nil, wire.CtrlHello, future), fmt.Sprintf("version %d, want %d", wire.ProtoVersion+9, wire.ProtoVersion)},
		{[]byte{0x00, 0x00, 0x02, 0x09, 0x02, 0x04, 0x08, 0x01, 0x80, 0x80, 0x80, 0x04, 0x01}, fmt.Sprintf("version 2, want %d", wire.ProtoVersion)},
	} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(tc.hello); err != nil {
			t.Fatal(err)
		}
		if reason := wantReject(t, nc); !strings.Contains(reason, tc.want) {
			t.Fatalf("reject reason %q does not say %q", reason, tc.want)
		}
	}
}

// wantReject reads the daemon's answer on a raw connection: it must be
// a CtrlReject followed by the connection closing. It returns the
// reason.
func wantReject(t *testing.T, nc net.Conn) string {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	ctl, err := wire.ReadControl(br)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Code != wire.CtrlReject {
		t.Fatalf("got control %d, want CtrlReject", ctl.Code)
	}
	reason, err := wire.ParseReject(ctl.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := br.ReadByte(); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("connection not closed after the reject: %v", err)
	}
	return reason
}

// rawClient speaks the client protocol by hand, for the sequences a
// conforming serve.Client never produces.
type rawClient struct {
	t  *testing.T
	nc net.Conn
	fr *wire.FrameReader
}

// clientHello is the opening every client connection needs: a hello
// claiming no shape.
func clientHello() []byte {
	return wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion}))
}

// helloRaw runs the handshake on a raw connection and returns the reader
// of the frames that follow the daemon's reply.
func helloRaw(t *testing.T, nc net.Conn) *wire.FrameReader {
	t.Helper()
	if _, err := nc.Write(clientHello()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, err := wire.ReadHelloReply(br, wire.Hello{Version: wire.ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	return wire.NewFrameReader(br, 1<<20)
}

// dialRaw connects and runs the handshake.
func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{t: t, nc: nc, fr: helloRaw(t, nc)}
}

func (rc *rawClient) send(m network.Message) {
	rc.t.Helper()
	payload, err := wire.Append(nil, m)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.nc.Write(wire.AppendFrame(nil, payload)); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawClient) wantGrant(req uint64) {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := rc.fr.Next()
	if err != nil {
		rc.t.Fatal(err)
	}
	if m, err := wire.Decode(frame); err != nil {
		rc.t.Fatal(err)
	} else if g, ok := m.(serve.ClientGrant); !ok || g.Req != req {
		rc.t.Fatalf("expected grant for req %d, got %#v", req, m)
	}
}

// TestHazardReleaseForRecycledRecord: request records are reused, ids
// are not. A ClientRelease for an id whose request has ended — its
// record already carrying a later request — must not touch that request.
func TestHazardReleaseForRecycledRecord(t *testing.T) {
	_, srv := startServer(t, 1, 2, serve.FIFO)
	rc := dialRaw(t, srv.Addr())
	rc.send(serve.ClientAcquire{Req: 7, Node: 0, Resources: []int64{0}})
	rc.wantGrant(7)
	rc.send(serve.ClientRelease{Req: 7})
	rc.send(serve.ClientAcquire{Req: 8, Node: 0, Resources: []int64{0}}) // on 7's record
	rc.wantGrant(8)
	rc.send(serve.ClientRelease{Req: 7}) // late duplicate
	// A round trip behind it: the duplicate has been handled by the time
	// request 9 is answered.
	rc.send(serve.ClientAcquire{Req: 9, Node: 0, Resources: []int64{1}})
	rc.send(serve.ClientRelease{Req: 9}) // withdraws or releases, either way
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_, err = cl.Acquire(ctx, 0, 0)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("resource 0 acquired by another client (err %v): the duplicate release ended request 8", err)
	}
	rc.send(serve.ClientRelease{Req: 8})
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := cl.Acquire(ctx, 0, 0)
	if err != nil {
		t.Fatalf("resource 0 stranded after its release: %v", err)
	}
	release()
}
