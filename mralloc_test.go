package mralloc

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimulateDefaults(t *testing.T) {
	rep, err := Simulate(SimConfig{Algorithm: CounterLoan, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grants == 0 || rep.UseRate <= 0 || rep.UseRate > 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.WaitMean < 0 || rep.MsgPerGrant <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSimulateAllAlgorithms(t *testing.T) {
	for _, a := range []Algorithm{Incremental, BouabdallahLaforest, CounterNoLoan, CounterLoan, SharedMemory} {
		rep, err := Simulate(SimConfig{
			Algorithm: a, Nodes: 8, Resources: 16, MaxRequestSize: 4,
			Duration: time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if rep.Grants == 0 {
			t.Fatalf("%s made no progress", a)
		}
	}
}

func TestSimulateUnknownAlgorithm(t *testing.T) {
	if _, err := Simulate(SimConfig{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSimulateRejectsNegativeLatency: a negative γ is a configuration
// error, not a simulator panic at the first message.
func TestSimulateRejectsNegativeLatency(t *testing.T) {
	if _, err := Simulate(SimConfig{Latency: -time.Millisecond, Duration: time.Second}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestSimulateHeadline(t *testing.T) {
	run := func(a Algorithm) Report {
		t.Helper()
		rep, err := Simulate(SimConfig{
			Algorithm: a, MaxRequestSize: 8, Rho: 0.5,
			Duration: 2 * time.Second, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	counter := run(CounterLoan)
	lock := run(BouabdallahLaforest)
	if counter.UseRate <= lock.UseRate {
		t.Errorf("counter use rate %.3f not above global lock %.3f", counter.UseRate, lock.UseRate)
	}
	if counter.WaitMean >= lock.WaitMean {
		t.Errorf("counter waiting %v not below global lock %v", counter.WaitMean, lock.WaitMean)
	}
}

func TestClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 4 || c.M() != 8 {
		t.Fatalf("dims %d/%d", c.N(), c.M())
	}
	var wg sync.WaitGroup
	for node := 0; node < 4; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				release, err := c.Acquire(context.Background(), node, node%8, (node+1)%8)
				if err != nil {
					t.Error(err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, v := range c.Stats() {
		total += v
	}
	if total == 0 {
		t.Fatal("no protocol traffic recorded")
	}
}

// reservePorts grabs k distinct free loopback ports. The listeners are
// closed before returning, so a racing process could in principle steal
// one; on a CI loopback this window is negligible.
func reservePorts(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	lns := make([]net.Listener, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestClusterMultiProcess runs the public multi-process mode: two
// cluster instances (stand-ins for two OS processes), each hosting two
// nodes, exchanging every protocol message over loopback TCP.
func TestClusterMultiProcess(t *testing.T) {
	const n, m = 4, 8
	peers := make([]string, n)
	for i, a := range reservePorts(t, 2) {
		peers[2*i] = a
		peers[2*i+1] = a
	}
	a, err := NewCluster(ClusterConfig{Nodes: n, Resources: m, Peers: peers, Local: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewCluster(ClusterConfig{Nodes: n, Resources: m, Peers: peers, Local: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Acquire(context.Background(), 2, 0); err == nil {
		t.Fatal("acquired a remote node through the wrong process")
	}
	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		c := a
		if node >= 2 {
			c = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				release, err := c.Acquire(context.Background(), node, node%m, (node+3)%m)
				if err != nil {
					t.Errorf("node %d: %v", node, err)
					return
				}
				release()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, stats := range []map[string]int64{a.Stats(), b.Stats()} {
		for _, v := range stats {
			total += v
		}
	}
	if total == 0 {
		t.Fatal("no protocol traffic recorded across processes")
	}
}

func TestClusterMultiProcessValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 2, Peers: []string{"x"}}); err == nil {
		t.Fatal("peer/node count mismatch accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 2, Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("missing Local accepted")
	}
	if _, err := NewCluster(ClusterConfig{
		Nodes: 2, Resources: 2, Peers: []string{"a", "b"}, Local: []int{0},
		Latency: time.Millisecond,
	}); err == nil {
		t.Fatal("latency + multi-process accepted")
	}
}

func TestClusterRejectsNegativeLatency(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 2, Latency: -time.Millisecond})
	if err == nil {
		c.Close()
		t.Fatal("negative latency accepted")
	}
}

func TestClusterRejectsBaselines(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 2, Algorithm: SharedMemory}); err == nil {
		t.Fatal("shared-memory live cluster accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 2, Algorithm: Incremental}); err == nil {
		t.Fatal("incremental live cluster accepted")
	}
}

func TestClusterCustomThreshold(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, Resources: 6, LoanThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release, err := c.Acquire(context.Background(), 2, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// TestClusterRejectsBadLoanThreshold: a loan threshold on the no-loan
// algorithm, or a negative one, is a configuration error — not loans
// switched on behind the caller's back, nor a threshold silently
// ignored.
func TestClusterRejectsBadLoanThreshold(t *testing.T) {
	for _, cfg := range []ClusterConfig{
		{Nodes: 2, Resources: 2, Algorithm: CounterNoLoan, LoanThreshold: 2},
		{Nodes: 2, Resources: 2, LoanThreshold: -1},
		{Nodes: 2, Resources: 2, Algorithm: CounterNoLoan, LoanThreshold: -1},
	} {
		if c, err := NewCluster(cfg); err == nil {
			c.Close()
			t.Errorf("algorithm %q with LoanThreshold %d accepted", cfg.Algorithm, cfg.LoanThreshold)
		}
	}
}

func TestLoanStatsRaceFree(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, Resources: 6})
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
			for i := 0; i < 15; i++ {
				release, err := c.Acquire(context.Background(), node, node%6, (node+1)%6, (node+2)%6)
				if err != nil {
					t.Error(err)
					return
				}
				release()
			}
		}()
	}
	// Sample stats while traffic is in flight: must be race-free.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			s := c.LoanStats()
			if s.Asked < 0 || s.Granted > s.Asked+1 {
				t.Errorf("implausible stats %+v", s)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	final := c.LoanStats()
	if final.Granted > final.Asked {
		t.Fatalf("granted %d > asked %d", final.Granted, final.Asked)
	}
}

// TestClusterSessions drives the public Session API: many sessions
// multiplexed onto few nodes under each policy, mutual exclusion
// checked with shared counters.
func TestClusterSessions(t *testing.T) {
	for _, policy := range []Policy{PolicyFIFO, PolicySSF, PolicyEDF} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			t.Parallel()
			const nodes, m, sessions, iters = 2, 6, 8, 6
			c, err := NewCluster(ClusterConfig{Nodes: nodes, Resources: m, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			holders := make([]atomic.Int32, m)
			var wg sync.WaitGroup
			for i := 0; i < sessions; i++ {
				i := i
				s, err := c.NewSession(i % nodes)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer s.Close()
					for k := 0; k < iters; k++ {
						r1 := (i + k) % m
						r2 := (i + k + 1) % m
						release, err := s.AcquireWith(context.Background(), AcquireOpts{
							Resources: []int{r1, r2},
							Deadline:  time.Now().Add(time.Duration(i+1) * time.Second),
						})
						if err != nil {
							t.Errorf("session %d: %v", i, err)
							return
						}
						for _, r := range []int{r1, r2} {
							if got := holders[r].Add(1); got != 1 {
								t.Errorf("resource %d had %d holders", r, got)
							}
						}
						for _, r := range []int{r1, r2} {
							holders[r].Add(-1)
						}
						release()
					}
					if s.Grants() != iters {
						t.Errorf("session %d: %d grants, want %d", i, s.Grants(), iters)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestClusterSessionErrors(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 1, Resources: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Acquire(context.Background(), 0); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("acquire on closed session: %v, want ErrSessionClosed", err)
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 1, Resources: 1, Policy: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	c.Close()
	if _, err := c.NewSession(0); !errors.Is(err, ErrClosed) {
		t.Errorf("session on closed cluster: %v, want ErrClosed", err)
	}
}

// TestClusterOptions: a known policy in ClusterConfig is accepted and
// an unknown one refused.
func TestClusterOptions(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 4, Policy: PolicySSF})
	if err != nil {
		t.Fatalf("valid policy refused: %v", err)
	}
	c.Close()
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Resources: 4, Policy: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
}
