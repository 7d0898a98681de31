package live

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/verify"
)

// TestChaosStress drives all four live-capable algorithms through the
// fault-injecting transport wrapper over the in-process fabric: delay
// plus directed partitions. Partitions buffer FIFO and heal, so the
// channel hypotheses (reliable, FIFO, no duplication) hold end to end
// by construction, and every acquire must be granted — safety AND
// liveness. The lossy stacks (drop, duplication and connection kills
// under Reliable, flat and sharded) are cmd/mrallocd's TestStackMatrix,
// built the way the daemon builds them.
func TestChaosStress(t *testing.T) {
	for algName, factory := range liveAlgorithms() {
		t.Run(algName+"/lossless", func(t *testing.T) {
			t.Parallel()
			runChaosLossless(t, factory)
		})
	}
}

// runChaosLossless: chaos over the in-process fabric with per-message
// delay and a roaming directed partition. Every acquire must still be
// granted — the fault window only slows the fabric down, it never
// loses anything.
func runChaosLossless(t *testing.T, factory alg.Factory) {
	const n, m = 6, 8
	iters := 12
	window := 1200 * time.Millisecond
	if testing.Short() {
		iters = 5
		window = 500 * time.Millisecond
	}
	ch := transport.NewChaos(transport.NewMem(n, 0), 0x10c4)
	c, err := New(Config{Nodes: n, Resources: m, Transport: ch}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch.SetFaults(transport.Faults{DelayMax: 2 * time.Millisecond})

	var monMu sync.Mutex
	now := sim.Wall().Now
	mon := verify.New(m, func(v verify.Violation) {
		t.Errorf("%v", v)
	})

	// The partitioner severs one directed link at a time, holds it for
	// a few tens of milliseconds, heals, and moves on — asymmetric
	// outages (A→B dark while B→A flows) roam across the cluster for
	// the whole fault window.
	partDone := make(chan struct{})
	go func() {
		defer close(partDone)
		rng := rand.New(rand.NewSource(7))
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			from := network.NodeID(rng.Intn(n))
			to := network.NodeID(rng.Intn(n - 1))
			if to >= from {
				to++
			}
			ch.Partition(transport.Link{From: from, To: to})
			time.Sleep(time.Duration(20+rng.Intn(50)) * time.Millisecond)
			ch.Heal(transport.Link{From: from, To: to})
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node)*104729 + 1))
			for i := 0; i < iters; i++ {
				rs := resource.Sample(rng, m, 1+rng.Intn(3))
				ids := make([]int, 0, rs.Len())
				rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

				monMu.Lock()
				mon.Requested(network.NodeID(node), now())
				monMu.Unlock()

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				release, err := c.Acquire(ctx, node, ids...)
				cancel()
				if err != nil {
					t.Errorf("node %d iter %d: acquire %v: %v (liveness under lossless faults)", node, i, ids, err)
					return
				}
				monMu.Lock()
				mon.Granted(network.NodeID(node), rs, now())
				monMu.Unlock()

				if d := rng.Intn(150); d > 0 {
					time.Sleep(time.Duration(d) * time.Microsecond)
				}

				monMu.Lock()
				mon.Released(network.NodeID(node), rs, now())
				monMu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	<-partDone

	// Fault window closed: heal everything, then probe liveness on a
	// clean fabric — one more monitored acquire per node must succeed
	// promptly.
	ch.StopFaults()
	for node := 0; node < n; node++ {
		rs := resource.NewSet(m)
		rs.Add(resource.ID(node % m))
		monMu.Lock()
		mon.Requested(network.NodeID(node), now())
		monMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		release, err := c.Acquire(ctx, node, node%m)
		cancel()
		if err != nil {
			t.Fatalf("node %d: post-window liveness probe: %v", node, err)
		}
		monMu.Lock()
		mon.Granted(network.NodeID(node), rs, now())
		mon.Released(network.NodeID(node), rs, now())
		monMu.Unlock()
		release()
	}

	monMu.Lock()
	defer monMu.Unlock()
	mon.CheckQuiescent(now())
	if got, want := mon.Grants(), n*(iters+1); got != want {
		t.Errorf("monitor saw %d grants, want %d", got, want)
	}
	if st := ch.ChaosStats(); st.Delayed == 0 {
		t.Errorf("fault window injected nothing: %+v", st)
	}
}

// TestRedialFreshDeltaState is the kill-then-redial regression for the
// delta-encoded wire path: after a live connection is forcibly aborted
// mid-deployment, the redialed connection must start from fresh delta
// state on both sides — the decoder must never resync-error on the
// first post-redial frame because a stale cache survived the old conn.
func TestRedialFreshDeltaState(t *testing.T) {
	const n, m = 2, 4
	factory := core.NewFactory(core.WithLoan())
	trs := make([]*transport.TCP, n)
	addrs := make([]string, n)
	for i := range trs {
		tr, err := transport.ListenTCP("127.0.0.1:0", n, i)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	cs := make([]*Cluster, n)
	for i := range cs {
		if err := trs[i].Connect(addrs); err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Nodes: n, Resources: m,
			Transport: trs[i],
			Local:     []int{i},
			Wire:      transport.WireOptions{Delta: true},
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()

	acquire := func(node int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		release, err := cs[node].Acquire(ctx, node, 0, 1, 2)
		if err != nil {
			return err
		}
		release()
		return nil
	}

	// Phase 1: overlapping acquires alternating between the nodes force
	// token transfers both ways, warming the delta caches on both
	// directions of the mesh. The last acquirer is node 1, so phase 2
	// is guaranteed to need the wire again.
	for i := 0; i < 6; i++ {
		if err := acquire(i % 2); err != nil {
			t.Fatalf("warmup acquire %d: %v", i, err)
		}
	}
	time.Sleep(150 * time.Millisecond) // quiesce: no protocol frames in flight

	// Kill every live connection, then absorb the one lost write per
	// corpse with a sacrificial frame: the conn table still holds the
	// killed conn (AbortConns does not mark it broken — discovery is
	// the bug under test), so this append hits the corpse, the flush
	// fails, and the conn is swept. No protocol frame pays the price.
	for i, tr := range trs {
		if err := tr.Err(); err != nil {
			t.Fatalf("endpoint %d before the kill: %v", i, err)
		}
		if killed := tr.AbortConns(); killed != 1 {
			t.Fatalf("endpoint %d: AbortConns killed %d conns, want 1", i, killed)
		}
		tr.Send(transport.Link{From: network.NodeID(i), To: network.NodeID(1 - i)},
			transporttest.Msg{K: transporttest.KindA, From: network.NodeID(i), Seq: 99})
	}
	// The failed write is recorded once its connection is swept.
	for i, tr := range trs {
		deadline := time.Now().Add(5 * time.Second)
		for tr.Err() == nil {
			if time.Now().After(deadline) {
				t.Fatalf("endpoint %d: killed conn never swept", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 2: the same overlapping pattern over redialed connections.
	// Every acquire moves tokens across a fresh conn whose first frames
	// are the delta preamble plus full state — if any stale delta cache
	// survived the kill, the decoder resync-errors and acquires hang.
	for i := 0; i < 6; i++ {
		if err := acquire(i % 2); err != nil {
			t.Fatalf("post-redial acquire %d: %v", i, err)
		}
	}
	for i, tr := range trs {
		if err := tr.Err(); err != nil && strings.Contains(err.Error(), "resync") {
			t.Fatalf("endpoint %d: delta resync after redial: %v", i, err)
		}
	}
}
