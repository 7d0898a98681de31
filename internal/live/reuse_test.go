package live

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/serve"
)

// The tests below pin the rules that make request records reusable: a
// session's ticket carries one acquire after another, so everything
// that used to be safe because a ticket was thrown away — a release
// called twice or late, a cancel at any point of the ticket's life —
// has to stay safe when the same ticket is already serving the next
// request. They run under the race detector in CI.

// heldBy reports whether someone holds resource r: a probe acquire on
// probe either times out (held) or is granted and handed straight back.
func heldBy(t *testing.T, probe *Session, r int) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	release, err := probe.Acquire(ctx, serve.AcquireOpts{Resources: []int{r}})
	if err == nil {
		release()
		return false
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe acquire: %v", err)
	}
	return true
}

func mustSession(t *testing.T, c *Cluster, node int) *Session {
	t.Helper()
	s, err := c.NewSession(node)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAcquire(t *testing.T, s *Session, resources ...int) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	release, err := s.Acquire(ctx, serve.AcquireOpts{Resources: resources})
	if err != nil {
		t.Fatalf("acquire %v: %v", resources, err)
	}
	return release
}

// TestHazardStaleRelease: a release func belongs to one grant. Called a
// second time, or after the session's next grant (on the same ticket),
// it releases nothing — flat, and across shards on both cross-shard
// schemes.
func TestHazardStaleRelease(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 2, Resources: 4},
		{Nodes: 2, Resources: 4, Shards: 2},
		{Nodes: 2, Resources: 4, Shards: 2, CrossShardTwoPhase: true},
	} {
		c, err := New(cfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		s, probe := mustSession(t, c, 0), mustSession(t, c, 1)
		first := mustAcquire(t, s, 0, 3) // both shards when sharded
		first()
		first()
		second := mustAcquire(t, s, 0, 3)
		first() // outlived its grant: must not touch the second one
		for _, r := range []int{0, 3} {
			if !heldBy(t, probe, r) {
				t.Errorf("%+v: a stale release func released resource %d of the session's next grant", cfg, r)
			}
		}
		second()
		if heldBy(t, probe, 0) || heldBy(t, probe, 3) {
			t.Errorf("%+v: resources still held after their own release", cfg)
		}
		c.Close()
	}
}

// TestHazardStaleEphemeralRelease: Cluster.Acquire's release also hands
// its ephemeral session back to the cluster's spares. A repeated or
// late call must neither release the session's next grant nor hand the
// session back a second time (two acquires would then share it).
func TestHazardStaleEphemeralRelease(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	ctx := context.Background()
	first, err := c.Acquire(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	first()
	second, err := c.Acquire(ctx, 0, 0) // the same spare session, the same ticket
	if err != nil {
		t.Fatal(err)
	}
	first()
	first()
	if !heldBy(t, mustSession(t, c, 1), 0) {
		t.Fatal("a stale release func released the next acquire's grant")
	}
	if n := len(c.spare[0]); n != 0 {
		t.Fatalf("%d spare sessions while the only one is in use", n)
	}
	// A third acquire while the second is held must get a session of
	// its own, not the one in use (which would fail with ErrSessionBusy
	// or share a ticket). It queues behind the second: one critical
	// section per node.
	released := make(chan struct{})
	go func() {
		defer close(released)
		for c.QueueLen(0) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		second()
	}()
	third, err := c.Acquire(ctx, 0, 1)
	if err != nil {
		t.Fatalf("concurrent ephemeral acquire: %v", err)
	}
	third()
	<-released
	second()
	if n := len(c.spare[0]); n != 2 {
		t.Fatalf("%d spare sessions after two concurrent acquires, want 2", n)
	}
}

// TestHazardCancelThenReacquire cancels an acquire at each point of its
// ticket's life — queued behind another session of the node, in flight
// in the protocol, and with the cancel racing the grant — and
// re-acquires on the same session at once. The re-acquire must be
// granted (on the returned ticket, or on a fresh one when the loop kept
// the old), exclusion must hold, and nothing may stay held afterwards.
func TestHazardCancelThenReacquire(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 2, Resources: 4},
		{Nodes: 2, Resources: 4, Shards: 2},
		{Nodes: 2, Resources: 4, Shards: 2, CrossShardTwoPhase: true},
	} {
		c, err := New(cfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 3} // spans both shards when sharded
		var holders [4]atomic.Int32
		enter := func(rs []int) {
			for _, r := range rs {
				if n := holders[r].Add(1); n != 1 {
					t.Errorf("%+v: resource %d has %d holders", cfg, r, n)
				}
			}
		}
		leave := func(rs []int) {
			for _, r := range rs {
				holders[r].Add(-1)
			}
		}
		victim := mustSession(t, c, 0)
		// acquireCancelled runs victim.Acquire under a context cancelled
		// by cancelAt, and reports whether it was granted anyway.
		acquireCancelled := func(cancelAt func(cancel func())) bool {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go cancelAt(cancel)
			release, err := victim.Acquire(ctx, serve.AcquireOpts{Resources: want})
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%+v: cancelled acquire: %v", cfg, err)
				}
				return false
			}
			enter(want)
			leave(want)
			release()
			return true
		}
		reacquire := func() {
			release := mustAcquire(t, victim, want...)
			enter(want)
			leave(want)
			release()
		}

		// Queued: another session of the same node is in its critical
		// section, so the victim's ticket waits in the scheduler.
		same := mustSession(t, c, 0)
		hold := mustAcquire(t, same, want...)
		enter(want)
		granted := acquireCancelled(func(cancel func()) {
			for c.QueueLen(0) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
		})
		if granted {
			t.Errorf("%+v: acquire queued behind a held grant was granted", cfg)
		}
		leave(want)
		hold()
		reacquire()

		// In flight: the holder is on the other node, so the victim's
		// request is in the protocol, waiting for tokens, when cancelled.
		other := mustSession(t, c, 1)
		hold = mustAcquire(t, other, want...)
		enter(want)
		granted = acquireCancelled(func(cancel func()) {
			time.Sleep(2 * time.Millisecond) // long enough to be admitted: nothing queues ahead
			cancel()
		})
		if granted {
			t.Errorf("%+v: acquire of a held set was granted", cfg)
		}
		go func(hold func()) { // lets the re-acquire queue behind the abandoned ticket first
			time.Sleep(time.Millisecond)
			leave(want)
			hold()
		}(hold)
		reacquire()

		// Racing the grant: the holder lets go at about the moment the
		// victim gives up, under a seeded schedule of the two delays.
		rng := rand.New(rand.NewSource(0xacc))
		iters := 300
		if testing.Short() {
			iters = 60
		}
		for i := 0; i < iters; i++ {
			hold = mustAcquire(t, other, want...)
			enter(want)
			releaseAfter := time.Duration(rng.Intn(300)) * time.Microsecond
			cancelAfter := time.Duration(rng.Intn(300)) * time.Microsecond
			go func(hold func()) {
				time.Sleep(releaseAfter)
				leave(want)
				hold()
			}(hold)
			acquireCancelled(func(cancel func()) {
				time.Sleep(cancelAfter)
				cancel()
			})
			reacquire()
		}
		probe := mustSession(t, c, 1)
		for _, r := range want {
			if heldBy(t, probe, r) {
				t.Errorf("%+v: resource %d left held", cfg, r)
			}
		}
		c.Close()
	}
}

// TestHazardAcquireWhileHolding: a session may start its next Acquire
// before the previous grant is released (from another goroutine). The
// held grant's ticket is still out, so the new request travels on a
// ticket of its own and neither release disturbs the other.
func TestHazardAcquireWhileHolding(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	s := mustSession(t, c, 0)
	first := mustAcquire(t, s, 0)
	go func() { // the second acquire queues behind the session's own grant
		for c.QueueLen(0) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		first()
	}()
	second := mustAcquire(t, s, 1)
	first()
	if !heldBy(t, mustSession(t, c, 0), 1) {
		t.Fatal("releasing the first grant again released the second")
	}
	second()
}
