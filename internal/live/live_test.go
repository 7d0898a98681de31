package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/core"
)

func newTestCluster(t *testing.T, n, m int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: n, Resources: m}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestAcquireReleaseSingleNode(t *testing.T) {
	c := newTestCluster(t, 4, 8)
	release, err := c.Acquire(context.Background(), 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent
}

func TestRejectsBadArguments(t *testing.T) {
	c := newTestCluster(t, 2, 4)
	ctx := context.Background()
	if _, err := c.Acquire(ctx, 9, 0); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := c.Acquire(ctx, 0, 7); err == nil {
		t.Error("bad resource accepted")
	}
	if _, err := c.Acquire(ctx, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := New(Config{Nodes: 0, Resources: 1}, core.NewFactory(core.Options{})); err == nil {
		t.Error("empty cluster accepted")
	}
	// A negative Latency is an error, not a zero-latency cluster.
	if neg, err := New(Config{Nodes: 2, Resources: 2, Latency: -time.Millisecond}, core.NewFactory(core.WithLoan())); err == nil {
		neg.Close()
		t.Error("negative latency accepted")
	}
}

// TestMutualExclusionUnderRace hammers conflicting acquisitions from
// many goroutines; the -race detector plus a shared counter per
// resource check exclusion the way a real application would see it.
func TestMutualExclusionUnderRace(t *testing.T) {
	const n, m, iters = 8, 6, 30
	c := newTestCluster(t, n, m)
	holders := make([]atomic.Int32, m)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r1 := (node + i) % m
				r2 := (node + i + 1) % m
				release, err := c.Acquire(context.Background(), node, r1, r2)
				if err != nil {
					t.Errorf("node %d: %v", node, err)
					return
				}
				for _, r := range []int{r1, r2} {
					if got := holders[r].Add(1); got != 1 {
						t.Errorf("resource %d had %d holders", r, got)
					}
				}
				time.Sleep(200 * time.Microsecond)
				for _, r := range []int{r1, r2} {
					holders[r].Add(-1)
				}
				release()
			}
		}()
	}
	wg.Wait()
}

// TestPerNodeSerialization: two concurrent Acquires on one node must
// serialize (hypothesis 4), not error or interleave.
func TestPerNodeSerialization(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := c.Acquire(context.Background(), 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			release()
		}()
	}
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("completed %d/4 acquisitions", len(order))
	}
}

func TestContextCancellationAutoReleases(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	// Node 0 holds resource 0.
	release, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 tries with a deadline that will expire while waiting.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Acquire(ctx, 1, 0); err == nil {
		t.Fatal("expected deadline error")
	}
	release()
	// The auto-release must eventually free resource 0 for node 1.
	deadline := time.After(5 * time.Second)
	for {
		ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
		rel2, err := c.Acquire(ctx2, 1, 0)
		cancel2()
		if err == nil {
			rel2()
			return
		}
		select {
		case <-deadline:
			t.Fatal("resource 0 never became available after cancellation")
		default:
		}
	}
}

func TestCloseUnblocksAcquirers(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	release, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = release
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), 1, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("acquire after close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not unblock on close")
	}
	c.Close() // idempotent
}

func TestStatsAccumulate(t *testing.T) {
	c := newTestCluster(t, 3, 4)
	// Node 2 must talk to node 0 (initial owner) to acquire anything.
	release, err := c.Acquire(context.Background(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	stats := c.Stats()
	var total int64
	for _, v := range stats {
		total += v
	}
	if total == 0 {
		t.Fatal("no messages counted")
	}
}

func TestLatencyModeStillCorrect(t *testing.T) {
	c, err := New(Config{Nodes: 4, Resources: 4, Latency: time.Millisecond},
		core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for node := 0; node < 4; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				release, err := c.Acquire(context.Background(), node, (node+i)%4)
				if err != nil {
					t.Error(err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
}

// TestSustainedStress runs a longer mixed workload (guarded by -short)
// across all nodes with overlapping random sets.
func TestSustainedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run")
	}
	const n, m, iters = 12, 10, 60
	c := newTestCluster(t, n, m)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := (node*7 + i) % m
				b := (a + 1 + i%3) % m
				cc := (b + 2) % m
				release, err := c.Acquire(context.Background(), node, a, b, cc)
				if err != nil {
					t.Errorf("node %d iter %d: %v", node, i, err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
}
