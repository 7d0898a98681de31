package live

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/bouabdallah"
	"mralloc/internal/core"
	"mralloc/internal/incremental"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/verify"
)

// liveAlgorithms are the four algorithms that can run on a live
// cluster: fully distributed state machines, all state in tokens and
// messages (the shared-memory comparator is simulation-only).
func liveAlgorithms() map[string]alg.Factory {
	return map[string]alg.Factory{
		"incremental":     incremental.NewFactory(),
		"bouabdallah":     bouabdallah.NewFactory(),
		"counter-no-loan": core.NewFactory(core.WithoutLoan()),
		"counter-loan":    core.NewFactory(core.WithLoan()),
	}
}

// fabric abstracts "one in-process cluster" versus "n clusters over
// TCP loopback, one per node" so the same battery drives both.
type fabric struct {
	name string
	// buildPolicy returns Acquire/session indirections, a per-process
	// stats aggregate, and a close function, with the given admission
	// policy and aging threshold on every node.
	buildPolicy func(t *testing.T, n, m int, f alg.Factory, p serve.Policy, aging time.Duration) *system
}

// build is buildPolicy at the default (FIFO) admission policy.
func (fb fabric) build(t *testing.T, n, m int, f alg.Factory) *system {
	return fb.buildPolicy(t, n, m, f, serve.FIFO, 0)
}

type system struct {
	acquire func(ctx context.Context, node int, rs ...int) (func(), error)
	session func(node int) (*Session, error)
	stats   func() map[string]int64
	close   func()
}

func memFabric() fabric {
	return fabric{name: "mem", buildPolicy: func(t *testing.T, n, m int, f alg.Factory, p serve.Policy, aging time.Duration) *system {
		c, err := New(Config{Nodes: n, Resources: m, Policy: p, Aging: aging}, f)
		if err != nil {
			t.Fatal(err)
		}
		return &system{acquire: c.Acquire, session: c.NewSession, stats: c.Stats, close: c.Close}
	}}
}

// shardedMemFabric splits the universe into g shards on the in-process
// fabric; the battery's random global sets then exercise cross-shard
// composition alongside single-shard requests.
func shardedMemFabric(g int) fabric {
	return fabric{name: fmt.Sprintf("mem-sharded-g%d", g), buildPolicy: func(t *testing.T, n, m int, f alg.Factory, p serve.Policy, aging time.Duration) *system {
		c, err := New(Config{Nodes: n, Resources: m, Policy: p, Aging: aging, Shards: g}, f)
		if err != nil {
			t.Fatal(err)
		}
		return &system{acquire: c.Acquire, session: c.NewSession, stats: c.Stats, close: c.Close}
	}}
}

// tcpFabric hosts every node in its own cluster instance over TCP
// loopback — the maximally distributed deployment, each endpoint a
// stand-in for one OS process, every message through the wire codec.
func tcpFabric() fabric { return tcpWireFabric("tcp", 0, transport.WireOptions{}) }

// tcpDeltaFabric is tcpFabric with delta-encoded token state on every
// link — the invariant battery must hold bit-exact protocol behavior
// under it.
func tcpDeltaFabric() fabric {
	return tcpWireFabric("tcp-delta", 0, transport.WireOptions{Delta: true})
}

// tcpShardedFabric is the per-node TCP topology with the universe
// split into g shards on every endpoint: shard traffic rides tagged
// frames and per-shard codec contexts over the same connections.
func tcpShardedFabric(g int) fabric {
	return tcpWireFabric(fmt.Sprintf("tcp-sharded-g%d", g), g, transport.WireOptions{})
}

// tcpWireFabric builds the per-node TCP topology, every endpoint with
// the given shard count and wire options.
func tcpWireFabric(name string, shards int, wire transport.WireOptions) fabric {
	return fabric{name: name, buildPolicy: func(t *testing.T, n, m int, f alg.Factory, p serve.Policy, aging time.Duration) *system {
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
			c, err := New(Config{Nodes: n, Resources: m, Transport: trs[i], Local: []int{i}, Policy: p, Aging: aging, Wire: wire, Shards: shards}, f)
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = c
		}
		return &system{
			acquire: func(ctx context.Context, node int, rs ...int) (func(), error) {
				return cs[node].Acquire(ctx, node, rs...)
			},
			session: func(node int) (*Session, error) {
				return cs[node].NewSession(node)
			},
			stats: func() map[string]int64 {
				total := make(map[string]int64)
				for _, c := range cs {
					for k, v := range c.Stats() {
						total[k] += v
					}
				}
				return total
			},
			close: func() {
				for _, c := range cs {
					c.Close()
				}
			},
		}
	}}
}

// TestVerifiedStress is the randomized safety/liveness battery: random
// Acquire/Release of random resource sets on N≥8 nodes, every event
// checked by verify.Monitor — the same invariant checker that guards
// the simulations — across all four live-capable algorithms, over both
// the in-process and the TCP-loopback fabric.
func TestVerifiedStress(t *testing.T) {
	fabrics := []fabric{
		memFabric(), tcpFabric(), tcpDeltaFabric(),
		shardedMemFabric(4), tcpShardedFabric(4),
	}
	for algName, factory := range liveAlgorithms() {
		for _, fb := range fabrics {
			factory, fb := factory, fb
			t.Run(algName+"/"+fb.name, func(t *testing.T) {
				t.Parallel()
				runVerifiedStress(t, fb, factory)
			})
		}
	}
}

func runVerifiedStress(t *testing.T, fb fabric, factory alg.Factory) {
	const n, m = 8, 12
	iters := 60
	if testing.Short() {
		iters = 20
	}
	sys := fb.build(t, n, m, factory)
	defer sys.close()

	// verify.Monitor is single-threaded by design (the simulation is
	// sequential); here events come from n goroutines, so one mutex
	// serializes them. Event ordering guarantees no false positives:
	// Granted is recorded after Acquire returns and Released strictly
	// before the release call, so a recorded overlap is a real overlap.
	var monMu sync.Mutex
	now := sim.Wall().Now
	mon := verify.New(m, func(v verify.Violation) {
		t.Errorf("%v", v)
	})

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node)*7919 + 13))
			for i := 0; i < iters; i++ {
				rs := resource.Sample(rng, m, 1+rng.Intn(4))
				ids := make([]int, 0, rs.Len())
				rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

				monMu.Lock()
				mon.Requested(network.NodeID(node), now())
				monMu.Unlock()

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				release, err := sys.acquire(ctx, node, ids...)
				cancel()
				if err != nil {
					t.Errorf("node %d iter %d: acquire %v: %v (liveness)", node, i, ids, err)
					return
				}
				monMu.Lock()
				mon.Granted(network.NodeID(node), rs, now())
				monMu.Unlock()

				if d := rng.Intn(200); d > 0 {
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

	monMu.Lock()
	defer monMu.Unlock()
	mon.CheckQuiescent(now())
	if got, want := mon.Grants(), n*iters; got != want {
		t.Errorf("monitor saw %d grants, want %d", got, want)
	}
	var total int64
	for _, v := range sys.stats() {
		total += v
	}
	if total == 0 {
		t.Error("no protocol messages counted")
	}
}

// TestLocalMustMatchTransportHosting: a Local set that differs from
// what the transport hosts, either way, must be rejected with an error
// (and the transport closed), never a panic at the first delivery.
func TestLocalMustMatchTransportHosting(t *testing.T) {
	tr, err := transport.ListenTCP("127.0.0.1:0", 8, 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// nil Local expands to all 8 nodes, but the endpoint hosts only 4.
	if _, err := New(Config{Nodes: 8, Resources: 4, Transport: tr}, core.NewFactory(core.WithLoan())); err == nil {
		t.Fatal("cluster accepted nodes its transport does not host")
	}
	// New owns the transport even on the error path: the listener must
	// be gone, so the same address can be bound again.
	if ln, err := transport.ListenTCP(tr.Addr(), 8, 0); err != nil {
		t.Fatalf("transport leaked by rejected config: %v", err)
	} else {
		ln.Close()
	}
	// The reverse: an in-process endpoint hosts every node, and a node it
	// delivers to must have a site here.
	if _, err := New(Config{Nodes: 4, Resources: 4, Transport: transport.NewMem(4, 0), Local: []int{0, 1}},
		core.NewFactory(core.WithLoan())); err == nil {
		t.Fatal("cluster accepted a transport hosting nodes it does not drive")
	}
}

// TestTCPClusterEquivalence runs one deterministic little protocol
// exchange on both fabrics and checks the TCP cluster behaves exactly
// like the in-process one where the protocol is deterministic: same
// grants, and protocol traffic of the same kinds.
func TestTCPClusterEquivalence(t *testing.T) {
	for algName, factory := range liveAlgorithms() {
		factory := factory
		t.Run(algName, func(t *testing.T) {
			t.Parallel()
			kinds := make([]map[string]bool, 0, 2)
			for _, fb := range []fabric{memFabric(), tcpFabric()} {
				const n, m = 3, 6
				sys := fb.build(t, n, m, factory)
				// A fixed sequential script: every node acquires an
				// overlapping pair, one after another.
				for node := 0; node < n; node++ {
					release, err := sys.acquire(context.Background(), node, node%m, (node+1)%m)
					if err != nil {
						t.Fatalf("%s: node %d: %v", fb.name, node, err)
					}
					release()
				}
				seen := make(map[string]bool)
				for k, v := range sys.stats() {
					if v > 0 {
						seen[k] = true
					}
				}
				sys.close()
				kinds = append(kinds, seen)
			}
			for k := range kinds[0] {
				if !kinds[1][k] {
					t.Errorf("kind %s seen in-process but not over TCP", k)
				}
			}
			for k := range kinds[1] {
				if !kinds[0][k] {
					t.Errorf("kind %s seen over TCP but not in-process", k)
				}
			}
		})
	}
}

// TestMultiProcessSplitCluster runs a 2-endpoint split (4 nodes each)
// — the deployment shape of two mrallocd daemons — and checks
// cross-process mutual exclusion directly with a shared-integer probe.
func TestMultiProcessSplitCluster(t *testing.T) {
	const n, m = 8, 4
	f := core.NewFactory(core.WithLoan())
	trA, err := transport.ListenTCP("127.0.0.1:0", n, 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := transport.ListenTCP("127.0.0.1:0", n, 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		if i < 4 {
			addrs[i] = trA.Addr()
		} else {
			addrs[i] = trB.Addr()
		}
	}
	if err := trA.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := trB.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Nodes: n, Resources: m, Transport: trA, Local: []int{0, 1, 2, 3}}, f)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Nodes: n, Resources: m, Transport: trB, Local: []int{4, 5, 6, 7}}, f)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if a.Local(4) || !a.Local(0) || b.Local(0) || !b.Local(4) {
		t.Fatal("Local() misreports hosting")
	}
	if _, err := a.Acquire(context.Background(), 4, 0); err == nil {
		t.Fatal("acquired through a cluster instance that does not host the node")
	}

	holders := make([]int32, m)
	var probeMu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for node := 0; node < n; node++ {
		node := node
		c := a
		if node >= 4 {
			c = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				r1 := (node + i) % m
				r2 := (node + i + 1) % m
				release, err := c.Acquire(context.Background(), node, r1, r2)
				if err != nil {
					errc <- fmt.Errorf("node %d: %w", node, err)
					return
				}
				probeMu.Lock()
				for _, r := range []int{r1, r2} {
					holders[r]++
					if holders[r] != 1 {
						errc <- fmt.Errorf("resource %d has %d holders (safety, cross-process)", r, holders[r])
					}
				}
				probeMu.Unlock()
				time.Sleep(100 * time.Microsecond)
				probeMu.Lock()
				for _, r := range []int{r1, r2} {
					holders[r]--
				}
				probeMu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
