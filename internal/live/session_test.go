package live

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
)

// TestSessionsMultiplexOneNode: many sessions on a single node must
// all be served through its one protocol slot, with mutual exclusion
// intact (checked by a shared holder counter).
func TestSessionsMultiplexOneNode(t *testing.T) {
	const sessions, iters, m = 16, 10, 4
	c := newTestCluster(t, 1, m)
	holders := make([]atomic.Int32, m)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.NewSession(0)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for k := 0; k < iters; k++ {
				r := (i + k) % m
				release, err := s.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{r}})
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if got := holders[r].Add(1); got != 1 {
					t.Errorf("resource %d had %d holders", r, got)
				}
				holders[r].Add(-1)
				release()
			}
			if s.Grants() != iters {
				t.Errorf("session %d counted %d grants, want %d", i, s.Grants(), iters)
			}
		}()
	}
	wg.Wait()
}

// TestSessionBusy: a session is one serialized client; overlapping
// Acquires on it must fail fast with ErrSessionBusy.
func TestSessionBusy(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	holder, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	release, err := holder.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		rel, err := s.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{0}})
		if err != nil {
			t.Errorf("blocked acquire failed: %v", err)
			return
		}
		rel()
	}()
	<-started
	// Wait until the first Acquire is genuinely queued.
	for i := 0; c.QueueLen(0) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{0}}); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("overlapping acquire returned %v, want ErrSessionBusy", err)
	}
	release()
	<-done
}

func TestSessionClosed(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{0}}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("acquire on closed session returned %v, want ErrSessionClosed", err)
	}
	if _, err := c.NewSession(7); err == nil {
		t.Fatal("session opened on a node that does not exist")
	}
}

// TestCloseFailsQueuedSessionsPromptly is the Close contract: with one
// grant held and many sessions queued behind it, Close must fail every
// queued and outstanding Acquire with ErrClosed — promptly, and
// without leaking a single goroutine.
func TestCloseFailsQueuedSessionsPromptly(t *testing.T) {
	defer leakcheck.Check(t)()
	const queued = 12
	c, err := New(Config{Nodes: 2, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	release, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = release // never called: Close unwinds the holder
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		node := i % 2
		go func() {
			_, err := c.Acquire(context.Background(), node, 0)
			errs <- err
		}()
	}
	// Let the acquirers reach the scheduler queues.
	for i := 0; c.QueueLen(0)+c.QueueLen(1) < queued-1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	deadline := time.After(5 * time.Second)
	for i := 0; i < queued; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("queued acquire returned %v, want ErrClosed", err)
			}
		case <-deadline:
			t.Fatalf("only %d/%d queued acquires unblocked after Close", i, queued)
		}
	}
	// A release arriving after Close must not hang either.
	release()
}

// TestRunnerPerShard: a cluster runs one goroutine per shard however
// many nodes it hosts, plus the ticker when Tick is set, and Close
// leaves none of them behind.
func TestRunnerPerShard(t *testing.T) {
	const started, runner, ticker = "created by mralloc/internal/live.New ", "live.(*runner).run(", "live.(*Cluster).runTicker("
	buf := make([]byte, 1<<20)
	count := func(s string) int {
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), s)
	}
	for _, tc := range []struct {
		nodes, shards int
		tick          time.Duration
	}{{8, 1, 0}, {8, 4, 0}, {5, 3, time.Millisecond}} {
		// Earlier tests' runners unwind after their Close returns.
		for i := 0; count(started) > 0 && i < 500; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		checkLeak := leakcheck.Check(t)
		c, err := New(Config{Nodes: tc.nodes, Resources: 8, Shards: tc.shards, Tick: tc.tick}, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		// Acquires on every node, some across shards: the runners are
		// past their first frame by the count.
		for node := 0; node < tc.nodes; node++ {
			release, err := c.Acquire(context.Background(), node, node, 7-node)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		tickers := 0
		if tc.tick > 0 {
			tickers = 1
		}
		if got := count(started); got != tc.shards+tickers {
			t.Errorf("%+v: New started %d goroutines, want %d", tc, got, tc.shards+tickers)
		}
		if got := count(runner); got != tc.shards {
			t.Errorf("%+v: %d runner goroutines, want one per shard", tc, got)
		}
		if got := count(ticker); got != tickers {
			t.Errorf("%+v: %d ticker goroutines, want %d", tc, got, tickers)
		}
		c.Close()
		checkLeak()
	}
}

// TestRunnerNoMonopoly: after a drain that woke a waiter the runner
// yields, so the woken sessions run before it drains again. Without the
// yield, at one P runnext hands the P back and forth between the runner
// and the session it woke last; that session finds its tokens still
// local and the rest starve — messages per grant fall from about 17.4
// to 0.1.
func TestRunnerNoMonopoly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, m, phi = 8, 32, 8
	c, err := New(Config{Nodes: n, Resources: m}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := time.Now().Add(300 * time.Millisecond)
	grants := make([]int, n)
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.NewSession(node)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(node) + 1))
			for time.Now().Before(stop) {
				opts := serve.AcquireOpts{Resources: rng.Perm(m)[:1+rng.Intn(phi)]}
				release, err := s.Acquire(context.Background(), opts)
				if err != nil {
					t.Error(err)
					return
				}
				release()
				grants[node]++
			}
		}()
	}
	wg.Wait()
	total, msgs := 0, int64(0)
	for _, g := range grants {
		total += g
	}
	for _, v := range c.Stats() {
		msgs += v
	}
	if total == 0 {
		t.Fatal("no grants")
	}
	perGrant := float64(msgs) / float64(total)
	t.Logf("%.2f messages per grant, grants per session %v", perGrant, grants)
	if perGrant < 5 {
		t.Errorf("%.2f messages per grant over %d grants, want ≥ 5: the woken sessions did not get to run", perGrant, total)
	}
	for node, g := range grants {
		if g*4*n < total {
			t.Errorf("session on node %d: %d grants, below a quarter of the mean %.1f (grants %v)", node, g, float64(total)/n, grants)
		}
	}
}

// relayNode passes each relayMsg on to the next site, switching kinds,
// until its hop count runs out. It counts what it received by kind and
// notes how many items its runner's mailbox held at each delivery.
type relayNode struct {
	env    alg.Env
	got    map[string]int64
	depths []int
}

type relayMsg struct {
	kind string
	hops int
}

func (m relayMsg) Kind() string { return m.kind }

func (r *relayNode) Attach(env alg.Env) { r.env = env }
func (*relayNode) Request(resource.Set) {}
func (*relayNode) Release()             {}

func (r *relayNode) Deliver(_ network.NodeID, m network.Message) {
	r.got[m.Kind()]++
	mb := &r.env.(*loop).r.mb
	mb.mu.Lock()
	r.depths = append(r.depths, len(mb.queue))
	mb.mu.Unlock()
	if x := m.(relayMsg); x.hops > 0 {
		next := relayMsg{kind: "Ping", hops: x.hops - 1}
		if x.kind == "Ping" {
			next.kind = "Pong"
		}
		r.env.Send((r.env.ID()+1)%network.NodeID(r.env.N()), next)
	}
}

// TestCoHostedChainOneDrain: on a cluster that built its own
// zero-latency fabric, a chain of messages between co-hosted sites
// that starts on the runner is handled within the drain that started
// it. A probe posted to the mailbox right after the first send finds
// every hop delivered, and the mailbox held the probe alone at each
// delivery: no hop went through it. Stats counts exactly the messages
// the sites received, by kind.
func TestCoHostedChainOneDrain(t *testing.T) {
	const n, hops = 3, 40
	for _, shards := range []int{1, 2} {
		var sites []*relayNode
		c, err := New(Config{Nodes: n, Resources: 4, Shards: shards}, func(n, m int) []alg.Node {
			nodes := make([]alg.Node, n)
			for i := range nodes {
				r := &relayNode{got: map[string]int64{}}
				sites = append(sites, r)
				nodes[i] = r
			}
			return nodes
		})
		if err != nil {
			t.Fatal(err)
		}
		s := shards - 1 // the chain runs on the last shard
		received := func() map[string]int64 {
			sum := map[string]int64{}
			for _, r := range sites {
				for k, v := range r.got {
					sum[k] += v
				}
			}
			return sum
		}
		var atProbe map[string]int64
		probed := make(chan struct{})
		c.InspectShard(s, 0, func(alg.Node) {
			l := c.loops[s][0]
			l.Send(1, relayMsg{kind: "Ping", hops: hops - 1})
			l.post(cmdInspect{fn: func(alg.Node) { atProbe = received() }, done: probed})
		})
		<-probed
		want := map[string]int64{"Ping": hops / 2, "Pong": hops / 2}
		if !maps.Equal(atProbe, want) {
			t.Errorf("shards=%d: the probe queued behind the first hop saw %v delivered, want the whole chain %v", shards, atProbe, want)
		}
		for i, r := range sites {
			for _, d := range r.depths {
				if d != 1 {
					t.Errorf("shards=%d: site %d saw %d mailbox items at a delivery, want 1 (the probe): %v", shards, i, d, r.depths)
					break
				}
			}
		}
		if got := c.Stats(); !maps.Equal(got, received()) {
			t.Errorf("shards=%d: Stats %v, sites received %v", shards, got, received())
		}
		c.Close()
	}
}

// TestCancelQueuedAcquire: a context canceled while the request is
// still queued must withdraw it without perturbing the node.
func TestCancelQueuedAcquire(t *testing.T) {
	defer leakcheck.Check(t)()
	c, err := New(Config{Nodes: 1, Resources: 1}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, 0, 0)
		errc <- err
	}()
	for i := 0; c.QueueLen(0) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled acquire returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled acquire did not return")
	}
	if n := c.QueueLen(0); n != 0 {
		t.Fatalf("queue still holds %d items after cancel", n)
	}
	release()
	// The node must still serve requests normally.
	rel2, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

// TestDeadlineFeedsEDF: under the EDF policy a later-submitted request
// with a nearer deadline overtakes earlier ones. The holder keeps the
// resource until every contender is queued, so the admission order is
// deterministic despite wall-clock scheduling.
func TestDeadlineFeedsEDF(t *testing.T) {
	c, err := New(Config{Nodes: 1, Resources: 1, Policy: serve.EDF}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release, err := c.Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Session 0: far deadline, submitted first. Session 1: near
	// deadline, submitted second. EDF must admit 1 before 0.
	deadlines := []time.Time{time.Now().Add(time.Hour), time.Now().Add(time.Minute)}
	for i := range deadlines {
		i := i
		s, err := c.NewSession(0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			rel, err := s.Acquire(context.Background(), serve.AcquireOpts{Resources: []int{0}, Deadline: deadlines[i]})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
		// Ensure submission order: wait until request i is queued.
		for k := 0; c.QueueLen(0) <= i && k < 1000; k++ {
			time.Sleep(time.Millisecond)
		}
	}
	release()
	wg.Wait()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("EDF admission order %v, want [1 0]", order)
	}
}
