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
	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/verify"
	"mralloc/internal/wire"
)

// TestDupTokenTransferExactlyOnce is the deterministic duplication
// regression: with Dup = 1.0 every frame — including every token
// transfer — is delivered twice, back to back. The reliable wrapper's
// receiver-side dedup must cancel the replay before the protocol sees
// it: alternating acquires force the tokens across the link on every
// round, safety is monitored throughout, and the dedup counter proves
// the duplicates actually arrived and were dropped.
func TestDupTokenTransferExactlyOnce(t *testing.T) {
	const n, m = 2, 3
	ch := transport.NewChaos(transport.NewMem(n, 0), 0xd0b1e)
	rel := transport.NewReliable(ch)
	c, err := New(Config{Nodes: n, Resources: m, Transport: rel}, core.NewFactory(core.WithoutLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mon := verify.New(m, func(v verify.Violation) { t.Errorf("%v", v) })
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start)) }

	// No drops, no delays: duplication only, so the run is a pure
	// replay test — every message arrives, then arrives again.
	ch.SetFaults(transport.Faults{Dup: 1.0})

	rs := resource.NewSet(m)
	for r := 0; r < m; r++ {
		rs.Add(resource.ID(r))
	}
	for i := 0; i < 8; i++ {
		node := i % 2 // alternate: every acquire moves all tokens across
		mon.Requested(network.NodeID(node), now())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		release, err := c.Acquire(ctx, node, 0, 1, 2)
		cancel()
		if err != nil {
			t.Fatalf("acquire %d under total duplication: %v", i, err)
		}
		mon.Granted(network.NodeID(node), rs, now())
		mon.Released(network.NodeID(node), rs, now())
		release()
	}
	mon.CheckQuiescent(now())

	if st := ch.ChaosStats(); st.Duplicated == 0 {
		t.Fatalf("no duplicates injected: %+v", st)
	}
	if st := rel.RelStats(); st.DupsDropped == 0 {
		t.Fatalf("duplicates injected but none dropped by the receiver: %+v", st)
	}
}

// TestLeaseContentionLive pits lease-parked entries against competing
// requests on the live runtime: with a short TTL every acquire parks at
// least briefly, and a parked node's tokens may be claimed by the other
// node mid-park — the reclaim path must re-issue the parked claim or
// the entry wedges with its interest recorded nowhere.
func TestLeaseContentionLive(t *testing.T) {
	const n, m = 2, 4
	opt := core.WithLoan()
	opt.LeaseTTL = 100 * sim.Millisecond
	c, err := New(Config{
		Nodes: n, Resources: m,
		Transport: transport.NewMem(n, 0),
		Tick:      5 * time.Millisecond,
	}, core.NewFactory(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Fully overlapping sets: every acquire contends.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				release, err := c.Acquire(ctx, node, 0, 1, 2)
				cancel()
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

// TestWedgeThenRecover kills the live TCP connections under a warmed
// delta-encoded mesh and immediately drives an acquire that needs the
// wire: the first frame after the kill hits the dead connection and is
// lost (conn-death discovery is write-triggered), so without
// retransmission the request would wedge forever — the pre-reliable
// stack's signature failure. The acquire must instead complete via the
// retransmit path, with no delta resync and no leaked goroutines.
func TestWedgeThenRecover(t *testing.T) {
	checkLeak := leakcheck.Check(t)

	const n, m = 2, 4
	trs := make([]*transport.TCP, n)
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
		rels[i] = transport.NewReliable(trs[i])
		rels[i].SetRetransmit(2*time.Millisecond, 50*time.Millisecond)
		c, err := New(Config{
			Nodes: n, Resources: m,
			Transport: rels[i],
			Local:     []int{i},
			Wire:      transport.WireOptions{Delta: true},
		}, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	closeAll := func() {
		for _, c := range cs {
			c.Close()
		}
	}
	defer checkLeak()
	defer closeAll()

	acquire := func(node int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		release, err := cs[node].Acquire(ctx, node, 0, 1, 2)
		if err != nil {
			return err
		}
		release()
		return nil
	}

	// Warm the mesh: tokens end up at node 1, so node 0's next acquire
	// is guaranteed to need a round trip over the wire.
	for i := 0; i < 4; i++ {
		if err := acquire(i % 2); err != nil {
			t.Fatalf("warmup acquire %d: %v", i, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // quiesce: no frames in flight

	// Sever every live connection. The corpses stay in the conn tables
	// until a write fails against them, so the next protocol frame each
	// endpoint sends is lost with its conn — the transfer is wedged
	// exactly the way a mid-stream kill wedges it.
	for i, tr := range trs {
		if killed := tr.AbortConns(); killed == 0 {
			t.Fatalf("endpoint %d: no live conns to abort", i)
		}
	}

	// The acquire must recover purely through retransmission: the lost
	// frames are re-sent, the redial brings the link back, and the
	// request completes with no human in the loop.
	if err := acquire(0); err != nil {
		t.Fatalf("post-kill acquire never recovered: %v", err)
	}

	retransmits := int64(0)
	for _, r := range rels {
		retransmits += r.RelStats().Retransmits
	}
	if retransmits == 0 {
		t.Fatalf("acquire recovered without retransmitting — the kill injected no loss")
	}
	for i, tr := range trs {
		if err := tr.Err(); err != nil && strings.Contains(err.Error(), "resync") {
			t.Fatalf("endpoint %d: delta resync after kill: %v", i, err)
		}
	}
}

// TestHazardRecordReuseUnderRetransmission runs core with loans — whose
// nodes keep and refill every batch record they are delivered — over
// Reliable → Chaos → Mem, the one stack where a sent record stays
// reachable from the fabric after its delivery: the reliable wrapper
// holds it for retransmission until acknowledged, and the fault injector
// queues some messages twice. A retransmitted or duplicated envelope
// therefore points at a record whose receiver may already have scrubbed
// and refilled it, and only the wrapper's dropping such envelopes on
// their sequence number, unread, keeps that sound. Every acquire must
// complete under the monitor, every record a node is handed must be,
// byte for byte, the one sent on its link (a refilled record carries
// its new sender's hints, not the ones it was sent with), and afterwards
// every token must still be there exactly once: each node in turn takes
// all M resources.
func TestHazardRecordReuseUnderRetransmission(t *testing.T) {
	const n, m = 4, 8
	iters := 60
	if testing.Short() {
		iters = 40
	}
	ch := transport.NewChaos(transport.NewMem(n, 0), 0xfee1)
	rel := transport.NewReliable(ch)
	rel.SetRetransmit(time.Millisecond, 20*time.Millisecond)
	seal := &sealed{Transport: rel, t: t, sent: map[transport.Link][][]byte{}}
	c, err := New(Config{Nodes: n, Resources: m, Transport: seal}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch.SetFaults(transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond})

	var monMu sync.Mutex
	mon := verify.New(m, func(v verify.Violation) { t.Errorf("%v", v) })
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start)) }
	acquire := func(node int, rs resource.Set) bool {
		ids := make([]int, 0, rs.Len())
		rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })
		monMu.Lock()
		mon.Requested(network.NodeID(node), now())
		monMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		release, err := c.Acquire(ctx, node, ids...)
		cancel()
		if err != nil {
			t.Errorf("node %d: acquire %v: %v", node, rs, err)
			return false
		}
		monMu.Lock()
		mon.Granted(network.NodeID(node), rs, now())
		mon.Released(network.NodeID(node), rs, now())
		monMu.Unlock()
		release()
		return true
	}

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node) + 7))
			for i := 0; i < iters; i++ {
				if !acquire(node, resource.Sample(rng, m, 1+rng.Intn(4))) {
					return
				}
			}
		}()
	}
	wg.Wait()
	ch.StopFaults()

	all := resource.NewSet(m)
	for r := 0; r < m; r++ {
		all.Add(resource.ID(r))
	}
	for node := 0; node < n; node++ {
		if !acquire(node, all) {
			t.Fatalf("node %d cannot assemble all %d tokens after the storm", node, m)
		}
	}
	monMu.Lock()
	mon.CheckQuiescent(now())
	monMu.Unlock()
	cs, rs := ch.ChaosStats(), rel.RelStats()
	if cs.Duplicated == 0 || rs.Retransmits == 0 || rs.DupsDropped == 0 {
		t.Fatalf("no delivered record was put back on the fabric: chaos %+v, recovery %+v", cs, rs)
	}
	if seal.checked == 0 {
		t.Fatal("no delivery was checked against what was sent")
	}
	var loans int
	for id := 0; id < n; id++ {
		c.Inspect(id, func(nd alg.Node) { loans += nd.(*core.Node).Counters().LoansGranted })
	}
	t.Logf("%d grants, %d loans; chaos dropped=%d dup=%d; retransmits=%d dups dropped=%d",
		mon.Grants(), loans, cs.Dropped, cs.Duplicated, rs.Retransmits, rs.DupsDropped)
}

// sealed checks that a transport hands every handler exactly what was
// sent: it encodes each message as it is sent and compares the encoding
// of each delivery with the oldest one sent on that link.
type sealed struct {
	transport.Transport
	t       *testing.T
	mu      sync.Mutex
	sent    map[transport.Link][][]byte
	checked int
}

func (s *sealed) Send(l transport.Link, m network.Message) {
	b, err := wire.Append(nil, m)
	if err != nil {
		s.t.Errorf("encoding %s: %v", m.Kind(), err)
	}
	s.mu.Lock()
	s.sent[l] = append(s.sent[l], b)
	s.mu.Unlock()
	s.Transport.Send(l, m)
}

func (s *sealed) Bind(shard int, id network.NodeID, h transport.Handler) {
	s.Transport.Bind(shard, id, func(from network.NodeID, m network.Message) {
		l := transport.Link{Shard: shard, From: from, To: id}
		got, _ := wire.Append(nil, m)
		s.mu.Lock()
		if q := s.sent[l]; len(q) == 0 {
			s.t.Errorf("link %+v delivers a %s nobody sent", l, m.Kind())
		} else {
			if string(got) != string(q[0]) {
				s.t.Errorf("link %+v delivers a %s other than the one sent", l, m.Kind())
			}
			s.sent[l] = q[1:]
			s.checked++
		}
		s.mu.Unlock()
		h(from, m)
	})
}
