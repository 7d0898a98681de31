package serve

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
)

// gateBackend is a backend whose acquisitions block until the test
// opens the gate (or their context ends), so a burst of n requests
// keeps n of the server's workers busy at the same moment.
type gateBackend struct {
	mu      sync.Mutex
	gate    chan struct{}
	blocked atomic.Int64 // acquisitions that have reached the gate
	served  []int        // node of every acquisition, in arrival order
}

func (b *gateBackend) arm() {
	b.mu.Lock()
	b.gate = make(chan struct{})
	b.blocked.Store(0)
	b.mu.Unlock()
}

func (b *gateBackend) open() {
	b.mu.Lock()
	close(b.gate)
	b.mu.Unlock()
}

func (b *gateBackend) session(node int) (BackendSession, error) {
	return gateSession{b, node}, nil
}

// gateSession is one backend session; the server runs request after
// request on it, so the node is recorded per acquisition, not per open.
type gateSession struct {
	b    *gateBackend
	node int
}

func (s gateSession) Acquire(ctx context.Context, _ AcquireOpts) (func(), error) {
	s.b.mu.Lock()
	gate := s.b.gate
	s.b.served = append(s.b.served, s.node)
	s.b.mu.Unlock()
	s.b.blocked.Add(1)
	select {
	case <-gate:
		return func() {}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (gateSession) Close() {}

func startGateServer(t *testing.T, b *gateBackend, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	cfg.Nodes, cfg.Resources = 3, 4
	cfg.Local = []int{0, 1, 2}
	cfg.Open = b.session
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, cl
}

// eventually polls cond until it holds; the conditions waited on here
// (a goroutine reaching a select, a counter draining) have no channel
// to wait on.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// workerCount counts the goroutines running Server.worker.
func workerCount() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "serve.(*Server).worker(")
}

// burst sends n acquisitions at once and calls atPeak while all n are
// blocked in the backend, then lets them through and releases them.
func burst(t *testing.T, srv *Server, cl *Client, b *gateBackend, n int, atPeak func()) {
	t.Helper()
	b.arm()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := cl.Acquire(context.Background(), AnyNode, 0)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			release()
		}()
	}
	eventually(t, "the whole burst to block in the backend", func() bool { return b.blocked.Load() == int64(n) })
	atPeak()
	b.open()
	wg.Wait()
	eventually(t, "the releases to land", func() bool { return srv.Sessions() == 0 })
}

// TestWorkersReusedAcrossBursts: a burst of n concurrent requests needs
// n workers; the next burst finds them parked and spawns none.
func TestWorkersReusedAcrossBursts(t *testing.T) {
	const n = 12
	b := &gateBackend{}
	srv, cl := startGateServer(t, b, ServerConfig{})
	defer srv.Close()
	defer cl.Close()
	for round := 1; round <= 3; round++ {
		burst(t, srv, cl, b, n, func() {
			if got := workerCount(); got != n {
				t.Errorf("burst %d: %d workers for %d concurrent requests", round, got, n)
			}
		})
	}
}

// TestWorkersRetireWhenIdle: parked workers leave on their own after
// workerIdle, with the server and the connection still open.
func TestWorkersRetireWhenIdle(t *testing.T) {
	b := &gateBackend{}
	srv, cl := startGateServer(t, b, ServerConfig{})
	defer srv.Close()
	defer cl.Close()
	burst(t, srv, cl, b, 4, func() {})
	if workerCount() == 0 {
		t.Fatal("no worker parked after a burst")
	}
	eventually(t, "idle workers to retire", func() bool { return workerCount() == 0 })
	// The port still serves: the next request spawns a fresh worker.
	burst(t, srv, cl, b, 1, func() {})
}

// TestCloseLeavesNoWorkers: Close takes every worker with it, parked
// (a finished burst) or busy (a burst still blocked in the backend).
func TestCloseLeavesNoWorkers(t *testing.T) {
	check := leakcheck.Check(t)
	const n = 12
	b := &gateBackend{}
	srv, cl := startGateServer(t, b, ServerConfig{})
	burst(t, srv, cl, b, n, func() {})

	b.arm()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cl.Acquire(context.Background(), AnyNode, 0)
			errs <- err
		}()
	}
	eventually(t, "the second burst to block", func() bool { return b.blocked.Load() == n })
	srv.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Error("acquire survived the server closing under it")
		}
	}
	cl.Close()
	check()
}

// TestAnyNodeCursorSurvivesWrap: the round-robin cursor passes MaxInt.
// Reduced as a signed int it indexed cfg.Local with a negative number
// and took the read loop down with it; every AnyNode path must keep
// rotating over the hosted nodes instead.
func TestAnyNodeCursorSurvivesWrap(t *testing.T) {
	b := &gateBackend{}
	shedOnce := true
	srv, cl := startGateServer(t, b, ServerConfig{
		// Shed the first candidate once, so the spread loop's own
		// cursor step runs past the wrap too.
		Overloaded: func(node, size int) bool {
			shed := shedOnce
			shedOnce = false
			return shed
		},
	})
	defer srv.Close()
	defer cl.Close()
	srv.rr.Store(math.MaxInt - 1)
	b.arm()
	b.open()
	for i := 0; i < 4; i++ {
		release, err := cl.Acquire(context.Background(), AnyNode, i)
		if err != nil {
			t.Fatalf("acquire %d across the wrap: %v", i, err)
		}
		release()
	}
	if srv.rr.Load() <= math.MaxInt {
		t.Fatalf("cursor at %d never passed MaxInt", srv.rr.Load())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 1; i < 4; i++ {
		if b.served[i] == b.served[i-1] {
			t.Fatalf("nodes %v: consecutive requests landed on one node", b.served)
		}
	}
}
