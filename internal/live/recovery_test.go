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
	now := sim.Wall().Now

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
	lg := newLedger(t, 1)
	c, err := New(Config{Nodes: n, Resources: m, Transport: &sealed{rel, lg}}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch.SetFaults(transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond})

	grants := monitoredStorm(t, n, m, iters, c.Acquire, ch.StopFaults)
	cs, rs := ch.ChaosStats(), rel.RelStats()
	if cs.Duplicated == 0 || rs.Retransmits == 0 || rs.DupsDropped == 0 {
		t.Fatalf("no delivered record was put back on the fabric: chaos %+v, recovery %+v", cs, rs)
	}
	if lg.deliveries() == 0 {
		t.Fatal("no delivery was checked against what was sent")
	}
	var loans int
	for id := 0; id < n; id++ {
		c.Inspect(id, func(nd alg.Node) { loans += nd.(*core.Node).Counters().LoansGranted })
	}
	t.Logf("%d grants, %d loans; chaos dropped=%d dup=%d; retransmits=%d dups dropped=%d",
		grants, loans, cs.Dropped, cs.Duplicated, rs.Retransmits, rs.DupsDropped)
}

// TestHazardReleasedRecordSentOnce runs core with loans over sockets,
// one endpoint per node, where a record leaves for good: TCP releases
// every record it has encoded (wire.Release), and the next decode in the
// process may refill it. A fabric handed one record twice would encode
// the second time whatever the record has become since. Chaos is the one
// layer that sends a message twice, and it sends its duplicate of a
// record as a codec copy.
//
//   - dup: Chaos(TCP) duplicates every message and nothing below the
//     nodes drops the copies. LASS does not survive a duplicated token
//     (hypothesis 3: a token delivered twice is owned twice), so the
//     test's seal hands each node the first copy only, after checking
//     both, byte for byte, against what was sent.
//   - reliable-lossy: Reliable(Chaos(TCP)) with 5 % drops and
//     duplicates. An envelope registers no release func, so what the
//     wrapper keeps for retransmission is never released, and every
//     delivery is the record sent on its link.
//
// Either way every acquire completes under the monitor and, the faults
// stopped, every token is still there exactly once.
func TestHazardReleasedRecordSentOnce(t *testing.T) {
	const n, m = 4, 8
	iters := 40
	if testing.Short() {
		iters = 20
	}
	for _, tc := range []struct {
		name   string
		copies int
		faults transport.Faults
	}{
		{"dup", 2, transport.Faults{Dup: 1}},
		{"reliable-lossy", 1, transport.Faults{Drop: 0.05, Dup: 0.05, DelayMax: 300 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := make([]*transport.TCP, n)
			addrs := make([]string, n)
			for i := range trs {
				tr, err := transport.ListenTCP("127.0.0.1:0", n, i)
				if err != nil {
					t.Fatal(err)
				}
				trs[i], addrs[i] = tr, tr.Addr()
			}
			lg := newLedger(t, tc.copies)
			chs := make([]*transport.Chaos, n)
			cs := make([]*Cluster, n)
			for i := range cs {
				if err := trs[i].Connect(addrs); err != nil {
					t.Fatal(err)
				}
				chs[i] = transport.NewChaos(trs[i], int64(i)+1)
				var tr transport.Transport = chs[i]
				if tc.copies == 1 {
					rel := transport.NewReliable(chs[i])
					rel.SetRetransmit(time.Millisecond, 20*time.Millisecond)
					tr = rel
				}
				c, err := New(Config{
					Nodes: n, Resources: m, Local: []int{i},
					Transport: &sealed{tr, lg},
					Wire:      transport.WireOptions{Delta: true},
				}, core.NewFactory(core.WithLoan()))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cs[i] = c
				chs[i].SetFaults(tc.faults)
			}
			acquire := func(ctx context.Context, node int, ids ...int) (func(), error) {
				return cs[node].Acquire(ctx, node, ids...)
			}
			// The seal counts on every message of the dup case arriving
			// twice, so its faults stay on to the end.
			stop := func() {}
			if tc.copies == 1 {
				stop = func() {
					for _, ch := range chs {
						ch.StopFaults()
					}
				}
			}
			defer func() {
				for i, tr := range trs {
					if err := tr.Err(); err != nil {
						t.Errorf("endpoint %d: %v", i, err)
					}
				}
			}()
			grants := monitoredStorm(t, n, m, iters, acquire, stop)
			var dups int64
			for _, ch := range chs {
				dups += ch.ChaosStats().Duplicated
			}
			checked := lg.deliveries()
			if dups == 0 || checked == 0 {
				t.Fatalf("%d duplicates, %d deliveries checked: the run put no record on a socket twice", dups, checked)
			}
			t.Logf("%d grants; %d duplicates; %d deliveries checked", grants, dups, checked)
		})
	}
}

// monitoredStorm has every node acquire iters random sets of one to
// four of the m resources under the verify monitor, stops the faults,
// then has each node in turn take all m: a lost or doubled token shows
// there. It returns the grants the monitor saw.
func monitoredStorm(t *testing.T, n, m, iters int, acquireFn func(context.Context, int, ...int) (func(), error), stopFaults func()) int {
	t.Helper()
	var monMu sync.Mutex
	mon := verify.New(m, func(v verify.Violation) { t.Errorf("%v", v) })
	now := sim.Wall().Now
	acquire := func(node int, rs resource.Set) bool {
		ids := make([]int, 0, rs.Len())
		rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })
		monMu.Lock()
		mon.Requested(network.NodeID(node), now())
		monMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		release, err := acquireFn(ctx, node, ids...)
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
	stopFaults()

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
	defer monMu.Unlock()
	mon.CheckQuiescent(now())
	return mon.Grants()
}

// ledger holds what the sealed endpoints of one cluster sent: each
// link's messages, encoded as they were sent, oldest first.
type ledger struct {
	t *testing.T
	// copies is how often each sent message is delivered: 2 where the
	// fabric duplicates every one.
	copies  int
	mu      sync.Mutex
	sent    map[transport.Link][]sentMsg
	checked int
}

type sentMsg struct {
	b    []byte
	seen int // deliveries so far
}

func newLedger(t *testing.T, copies int) *ledger {
	return &ledger{t: t, copies: copies, sent: map[transport.Link][]sentMsg{}}
}

// deliveries is how many deliveries were checked so far; a copy may
// still be on its way.
func (lg *ledger) deliveries() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.checked
}

// sealed checks that a transport hands every handler exactly what was
// sent: it encodes each message as it is sent and compares the encoding
// of each delivery with the oldest one sent on that link. The handler
// is handed the first copy of each message only.
type sealed struct {
	transport.Transport
	*ledger
}

func (s *sealed) Send(l transport.Link, m network.Message) {
	b, err := wire.Append(nil, m)
	if err != nil {
		s.t.Errorf("encoding %s: %v", m.Kind(), err)
	}
	s.mu.Lock()
	s.sent[l] = append(s.sent[l], sentMsg{b: b})
	s.mu.Unlock()
	s.Transport.Send(l, m)
}

func (s *sealed) Configure(cfg transport.Config, deliver transport.Handler) {
	s.Transport.Configure(cfg, func(l transport.Link, m network.Message) {
		if s.check(l, m) {
			deliver(l, m)
		}
	})
}

// check compares a delivery on l with the oldest message sent there and
// reports whether it is that message's first copy.
func (lg *ledger) check(l transport.Link, m network.Message) bool {
	got, _ := wire.Append(nil, m)
	lg.mu.Lock()
	defer lg.mu.Unlock()
	q := lg.sent[l]
	if len(q) == 0 {
		lg.t.Errorf("link %+v delivers a %s nobody sent", l, m.Kind())
		return true
	}
	if string(got) != string(q[0].b) {
		lg.t.Errorf("link %+v delivers a %s other than the one sent", l, m.Kind())
	}
	lg.checked++
	q[0].seen++
	first := q[0].seen == 1
	if q[0].seen == lg.copies {
		lg.sent[l] = q[1:]
	}
	return first
}
