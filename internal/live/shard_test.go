package live

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
)

// TestShardedClusterBasics: shard accounting, per-shard inspection,
// and all-or-nothing cross-shard grants on a G=4 in-process cluster.
func TestShardedClusterBasics(t *testing.T) {
	c, err := New(Config{Nodes: 2, Resources: 12, Shards: 4}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}
	smap := c.ShardLayout()
	if smap.M() != 12 || smap.Shards() != 4 {
		t.Fatalf("layout %d/%d, want 12/4", smap.M(), smap.Shards())
	}
	for s := 0; s < 4; s++ {
		inspected := false
		if !c.InspectShard(s, 0, func(alg.Node) { inspected = true }) || !inspected {
			t.Fatalf("InspectShard(%d, 0) did not run", s)
		}
	}
	if c.InspectShard(4, 0, func(alg.Node) {}) {
		t.Fatal("InspectShard accepted an out-of-range shard")
	}

	// A cross-shard acquire (resources 0 and 11 live in shards 0 and 3)
	// holds both; a competitor for either part blocks until release.
	release, err := c.Acquire(context.Background(), 0, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		rel, err := c.Acquire(context.Background(), 1, 11)
		if err == nil {
			rel()
		}
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("conflicting acquire completed while cross-shard grant held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("conflicting acquire never completed after release")
	}

	// Non-conflicting acquires in two different shards are held
	// simultaneously by different sessions of one node.
	relA, err := c.Acquire(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := c.Acquire(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	relB()
	relA()
}

// TestShardedConfigValidation: a shard count the cluster cannot realize
// is rejected.
func TestShardedConfigValidation(t *testing.T) {
	f := core.NewFactory(core.WithLoan())
	if _, err := New(Config{Nodes: 2, Resources: 4, Shards: 5}, f); err == nil {
		t.Fatal("accepted more shards than resources")
	}
}

// TestShardedOverReliable: a wrapped transport carries a sharded
// cluster like any other — Reliable keys its sequence spaces by the
// whole link, shard included — and a cross-shard acquire goes through.
// (Before the one link-addressed send path, live.New refused this
// stack.)
func TestShardedOverReliable(t *testing.T) {
	rel := transport.NewReliable(transport.NewMem(2, 0))
	c, err := New(Config{Nodes: 2, Resources: 4, Shards: 2, Transport: rel}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		// Resources 1 and 2 live in shards 0 and 1; alternate the
		// requesting node so both shards' tokens cross the fabric.
		release, err := c.Acquire(ctx, i%2, 1, 2)
		if err != nil {
			t.Fatalf("cross-shard acquire %d over Reliable(Mem): %v", i, err)
		}
		release()
	}
	// Reliable acknowledges asynchronously: the last frames' acks may
	// still be on their way when the last release returns.
	rs := rel.RelStats()
	for deadline := time.Now().Add(10 * time.Second); rs.Acked == 0 && time.Now().Before(deadline); rs = rel.RelStats() {
		time.Sleep(time.Millisecond)
	}
	if rs.Acked == 0 {
		t.Fatalf("no frame was acknowledged — traffic bypassed the wrapper (stats: %+v)", rs)
	}
}

// TestShardedOppositeOrderNoDeadlock is the deterministic regression
// for ordered shard locking: two sessions repeatedly acquire the same
// two-shard resource pair, one naming the resources low-to-high, the
// other high-to-low. Acquire canonicalizes both into ascending shard
// order, so no interleaving can deadlock; without that invariant this
// test wedges (each session holding the shard the other needs) and the
// deadline fails it.
func TestShardedOppositeOrderNoDeadlock(t *testing.T) {
	for _, twoPhase := range []bool{false, true} {
		t.Run(fmt.Sprintf("twoPhase=%v", twoPhase), func(t *testing.T) {
			c, err := New(Config{Nodes: 2, Resources: 8, Shards: 4, CrossShardTwoPhase: twoPhase},
				core.NewFactory(core.WithLoan()))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const iters = 50
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			errc := make(chan error, 2)
			for w := 0; w < 2; w++ {
				w := w
				go func() {
					s, err := c.NewSession(w)
					if err != nil {
						errc <- err
						return
					}
					// Worker 0 asks [1, 6], worker 1 asks [6, 1]: shards 0
					// and 3, named in opposite order.
					rs := []int{1, 6}
					if w == 1 {
						rs = []int{6, 1}
					}
					for i := 0; i < iters; i++ {
						release, err := s.Acquire(ctx, serve.AcquireOpts{Resources: rs})
						if err != nil {
							errc <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
							return
						}
						release()
					}
					errc <- nil
				}()
			}
			for w := 0; w < 2; w++ {
				if err := <-errc; err != nil {
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("deadlock: %v", err)
					}
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShardedAcquireCancel: a canceled cross-shard acquire withdraws
// cleanly — nothing stays held, so a follow-up acquire of the full set
// succeeds immediately.
func TestShardedAcquireCancel(t *testing.T) {
	c, err := New(Config{Nodes: 1, Resources: 8, Shards: 4}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hold shard 3 so a cross-shard acquire of {0, 7} parks on it.
	hold, err := c.Acquire(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, 0, 0, 7)
		parked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire returned %v", err)
	}
	hold()

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	release, err := c.Acquire(ctx2, 0, 0, 7)
	if err != nil {
		t.Fatalf("post-cancel acquire: %v (a canceled part leaked a hold)", err)
	}
	release()
}
