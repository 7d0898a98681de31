package live

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/bouabdallah"
	"mralloc/internal/core"
	"mralloc/internal/incremental"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/verify"
)

// TestChaosStress drives all four live-capable algorithms through the
// fault-injecting transport wrapper, in three profiles with different
// fault menus but the same contract — safety AND liveness:
//
//   - lossless: delay plus directed partitions over the in-process
//     fabric. Partitions buffer FIFO and heal, so the channel
//     hypotheses (reliable, FIFO, no duplication) hold end to end by
//     construction.
//
//   - lossy: drop plus duplication plus delay plus mid-stream
//     connection kills over the per-node TCP fabric, with the
//     reliable per-link wrapper in the stack (live → Reliable →
//     Chaos → TCP). Retransmission refills drops and kill windows,
//     receiver-side dedup cancels duplicates — hypothesis 1 is
//     restored end to end, so every acquire must still complete.
//
//   - sharded-lossy: the lossy stack and fault menu under a cluster of
//     four resource shards, most acquires spanning several. Every
//     (shard, from, to) link has its own fault decisions, sequence
//     space and retransmit buffer, all multiplexed over the same killed
//     and redialed connections.
func TestChaosStress(t *testing.T) {
	for algName, factory := range liveAlgorithms() {
		factory := factory
		t.Run(algName+"/lossless", func(t *testing.T) {
			t.Parallel()
			runChaosLossless(t, factory)
		})
	}
	for algName, factory := range chaosLossyFactories() {
		factory := factory
		t.Run(algName+"/lossy", func(t *testing.T) {
			t.Parallel()
			runChaosLossy(t, factory, 6, 1)
		})
		t.Run(algName+"/sharded-lossy", func(t *testing.T) {
			t.Parallel()
			runChaosLossy(t, factory, 8, 4)
		})
	}
}

// chaosLossyFactories is liveAlgorithms with token leases armed on the
// core variants: lease heartbeats, grant echoes and (were a holder to
// actually die) regeneration traffic all share the storm with protocol
// frames. The TTL is wide enough that chaos-induced delay never lapses
// a live holder's lease — a spurious regeneration would be a real bug,
// and the safety monitor would catch the resulting double grant.
func chaosLossyFactories() map[string]alg.Factory {
	withLease := func(o core.Options) core.Options {
		o.LeaseTTL = 250 * sim.Millisecond
		return o
	}
	return map[string]alg.Factory{
		"incremental":     incremental.NewFactory(),
		"bouabdallah":     bouabdallah.NewFactory(),
		"counter-no-loan": core.NewFactory(withLease(core.WithoutLoan())),
		"counter-loan":    core.NewFactory(withLease(core.WithLoan())),
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

// runChaosLossy: chaos over per-node TCP endpoints with message drop,
// duplication, delay, and periodic mid-stream connection kills. The
// reliable wrapper sits between the cluster and the chaos layer, so
// every lost or duplicated frame is healed below the protocol:
// acquires are required to succeed (a wedged request slot is now a
// liveness failure, not tolerated collateral), and after the storm a
// probe round plus a quiescence check close the books. The core
// variants run with leases armed, exercising heartbeat and grant-echo
// traffic under the same faults. With shards above one the m resources
// split into that many shards, and at least a quarter of the storm's
// acquires must span several of them.
func runChaosLossy(t *testing.T, factory alg.Factory, m, shards int) {
	const n = 4
	iters := 10
	window := time.Second
	if testing.Short() {
		iters = 4
		window = 400 * time.Millisecond
	}
	trs := make([]*transport.TCP, n)
	chs := make([]*transport.Chaos, n)
	rels := make([]*transport.Reliable, n)
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
		chs[i] = transport.NewChaos(trs[i], 0xbad5eed+int64(i))
		rels[i] = transport.NewReliable(chs[i])
		// Tight retransmission keeps recovery latency well inside the
		// acquire timeout even when several frames in a row are lost.
		rels[i].SetRetransmit(2*time.Millisecond, 50*time.Millisecond)
		c, err := New(Config{
			Nodes: n, Resources: m, Shards: shards,
			Transport: rels[i],
			Local:     []int{i},
			Wire:      transport.WireOptions{Delta: true},
			Tick:      20 * time.Millisecond,
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	defer func() {
		for _, c := range cs {
			c.Close() // errors expected: the fabric was being killed on purpose
		}
	}()

	var monMu sync.Mutex
	now := sim.Wall().Now
	mon := verify.New(m, func(v verify.Violation) {
		t.Errorf("%v", v)
	})

	// Warmup on the clean fabric: every node acquires successfully
	// twice, so the token state, the delta caches, and the connection
	// mesh are all live before the storm starts.
	warm := 0
	for node := 0; node < n; node++ {
		for k := 0; k < 2; k++ {
			rs := resource.NewSet(m)
			ids := []int{node % m, (node + 1) % m}
			for _, id := range ids {
				rs.Add(resource.ID(id))
			}
			monMu.Lock()
			mon.Requested(network.NodeID(node), now())
			monMu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			release, err := cs[node].Acquire(ctx, node, ids...)
			cancel()
			if err != nil {
				t.Fatalf("node %d: warmup acquire: %v", node, err)
			}
			monMu.Lock()
			mon.Granted(network.NodeID(node), rs, now())
			mon.Released(network.NodeID(node), rs, now())
			monMu.Unlock()
			release()
			warm++
		}
	}
	time.Sleep(100 * time.Millisecond) // let warmup traffic drain before arming

	for _, ch := range chs {
		ch.SetFaults(transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond})
	}
	killDone := make(chan struct{})
	var kills atomic.Int64
	go func() {
		defer close(killDone)
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			time.Sleep(120 * time.Millisecond)
			for _, ch := range chs {
				kills.Add(int64(ch.AbortConns()))
			}
		}
	}()

	// Storm phase. With retransmission under the protocol, a dropped
	// frame no longer wedges a request slot — every acquire is
	// required to complete, and the full Requested/Granted/Released
	// sequence is monitored just like the lossless profile.
	const acquireTimeout = 60 * time.Second
	smap := cs[0].ShardLayout()
	var granted, crossShard atomic.Int64
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node)*6151 + 3))
			for i := 0; i < iters; i++ {
				rs := resource.Sample(rng, m, 1+rng.Intn(3))
				ids := make([]int, 0, rs.Len())
				rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

				monMu.Lock()
				mon.Requested(network.NodeID(node), now())
				monMu.Unlock()

				ctx, cancel := context.WithTimeout(context.Background(), acquireTimeout)
				release, err := cs[node].Acquire(ctx, node, ids...)
				cancel()
				if err != nil {
					t.Errorf("node %d iter %d: acquire %v: %v (liveness under lossy faults)", node, i, ids, err)
					return
				}
				monMu.Lock()
				mon.Granted(network.NodeID(node), rs, now())
				monMu.Unlock()
				granted.Add(1)
				if len(smap.Split(rs)) > 1 {
					crossShard.Add(1)
				}

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
	<-killDone
	for _, ch := range chs {
		ch.StopFaults()
	}

	// Nothing may still be pending once every storm acquire returned:
	// the recovery horizon is the acquire timeout itself.
	monMu.Lock()
	mon.CheckLiveness(now(), sim.Time(acquireTimeout))
	monMu.Unlock()

	// Storm over, faults off: one monitored probe per node on the
	// healed fabric must succeed promptly, then the run is quiescent.
	for node := 0; node < n; node++ {
		rs := resource.NewSet(m)
		rs.Add(resource.ID(node % m))
		monMu.Lock()
		mon.Requested(network.NodeID(node), now())
		monMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		release, err := cs[node].Acquire(ctx, node, node%m)
		cancel()
		if err != nil {
			t.Fatalf("node %d: post-storm liveness probe: %v", node, err)
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
	if got, want := mon.Grants(), warm+n*iters+n; got != want {
		t.Errorf("monitor saw %d grants, want %d", got, want)
	}
	var cst transport.ChaosStats
	for _, ch := range chs {
		s := ch.ChaosStats()
		cst.Dropped += s.Dropped
		cst.Duplicated += s.Duplicated
		cst.Killed += s.Killed
	}
	var rst transport.RelStats
	for _, r := range rels {
		s := r.RelStats()
		rst.Retransmits += s.Retransmits
		rst.Acked += s.Acked
		rst.DupsDropped += s.DupsDropped
		rst.Gaps += s.Gaps
	}
	if cst.Dropped == 0 {
		t.Errorf("fault window dropped nothing: %+v", cst)
	}
	if rst.Retransmits == 0 {
		t.Errorf("drops injected but nothing retransmitted: %+v", rst)
	}
	if shards > 1 && 4*crossShard.Load() < granted.Load() {
		t.Errorf("%d of %d storm acquires crossed shards, want at least a quarter", crossShard.Load(), granted.Load())
	}
	t.Logf("storm: %d grants (%d cross-shard); chaos dropped=%d dup=%d conns killed=%d (+%d aborts); recovery retransmits=%d acked=%d dups dropped=%d gaps=%d",
		granted.Load(), crossShard.Load(), cst.Dropped, cst.Duplicated, cst.Killed, kills.Load(),
		rst.Retransmits, rst.Acked, rst.DupsDropped, rst.Gaps)
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
		if killed := tr.AbortConns(); killed != 1 {
			t.Fatalf("endpoint %d: AbortConns killed %d conns, want 1", i, killed)
		}
		tr.Send(transport.Link{From: network.NodeID(i), To: network.NodeID(1 - i)},
			transporttest.Msg{K: transporttest.KindA, From: network.NodeID(i), Seq: 99})
	}
	for i, tr := range trs {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, open := tr.Negotiated(addrs[1-i]); !open {
				break
			}
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
