package live

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
)

// sinkNode is a protocol node that does nothing: the loop-egress pin
// drives the loop's own send path around it.
type sinkNode struct{}

func (sinkNode) Attach(alg.Env)                          {}
func (sinkNode) Request(resource.Set)                    {}
func (sinkNode) Release()                                {}
func (sinkNode) Deliver(network.NodeID, network.Message) {}

type sinkMsg struct{}

func (sinkMsg) Kind() string { return "Sink" }

// sinks builds the two do-nothing nodes of the loop-egress tests.
func sinks(n, m int) []alg.Node { return []alg.Node{sinkNode{}, sinkNode{}} }

// TestLoopEgressSingleMessageAllocs pins the loop's egress at 0
// allocations per message on both routes, flat and sharded. On the
// direct route (the cluster built its own fabric) the message is
// counted and appended to the runner's local queue, which keeps its
// capacity from drain to drain; on the fabric route (a Mem handed in)
// it is one Send, which the Mem hands to the destination's mailbox as a
// value. Together with the transport-level pin this guards the
// benchmark's allocs_per_op bound on mem_closed (direct, ~17.4 messages
// per critical section) and sharded_delay (fabric).
func TestLoopEgressSingleMessageAllocs(t *testing.T) {
	for _, route := range []string{"direct", "fabric"} {
		for _, shards := range []int{1, 2} {
			cfg := Config{Nodes: 2, Resources: 4, Shards: shards}
			if route == "fabric" {
				cfg.Transport = transport.NewMem(2, 0)
			}
			c, err := New(cfg, sinks)
			if err != nil {
				t.Fatal(err)
			}
			var m network.Message = sinkMsg{}
			l := c.loops[shards-1][0]
			got := -1.0
			// On the shard's runner, mid-drain. The first pass grows the
			// queue the second one reuses.
			for range 2 {
				c.InspectShard(shards-1, 0, func(alg.Node) {
					got = testing.AllocsPerRun(500, func() { l.Send(1, m) })
				})
			}
			c.Close()
			if got != 0 {
				t.Errorf("%s, shards=%d: %v allocs per 1-message egress, want 0", route, shards, got)
			}
		}
	}
}

// sendCounter is a Mem that counts the Sends it is handed.
type sendCounter struct {
	*transport.Mem
	sends atomic.Int64
}

func (s *sendCounter) Send(l transport.Link, m network.Message) {
	s.sends.Add(1)
	s.Mem.Send(l, m)
}

// TestFabricSendLeavesMidDrain: on the fabric route a protocol send
// reaches the transport when it is made, not at the end of the drain
// that made it — the loop keeps no egress buffer.
func TestFabricSendLeavesMidDrain(t *testing.T) {
	tr := &sendCounter{Mem: transport.NewMem(2, 0)}
	c, err := New(Config{Nodes: 2, Resources: 4, Transport: tr}, sinks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := c.loops[0][0]
	var sent int64
	c.Inspect(0, func(alg.Node) {
		l.Send(1, sinkMsg{})
		sent = tr.sends.Load()
	})
	if sent != 1 {
		t.Fatalf("the transport had been handed %d messages when the sending activation returned, want 1", sent)
	}
}

// TestAcquireAllocs pins the uncontended acquire→release round trip on
// a one-node cluster, flat and sharded: what is left is the release
// closure and the protocol's own work, not request scaffolding. The
// ephemeral door (Cluster.Acquire — the benchmark's
// live.local_acquire_allocs probe) draws its session from the cluster's
// spares; a long-lived session is one closure cheaper than its budget
// only because core's outbox allocates on about every other request.
func TestAcquireAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	for _, shards := range []int{1, 2} {
		c, err := New(Config{Nodes: 1, Resources: 8, Shards: shards}, core.NewFactory(core.WithLoan()))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		door := testing.AllocsPerRun(500, func() {
			release, err := c.Acquire(ctx, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			release()
		})
		if door > 4 {
			t.Errorf("shards=%d: %v allocs per Cluster.Acquire+release, budget 4", shards, door)
		}
		s, err := c.NewSession(0)
		if err != nil {
			t.Fatal(err)
		}
		opts := serve.AcquireOpts{Resources: []int{5}}
		long := testing.AllocsPerRun(500, func() {
			release, err := s.Acquire(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			release()
		})
		if long > 2 {
			t.Errorf("shards=%d: %v allocs per Session.Acquire+release, budget 2", shards, long)
		}
		c.Close()
	}
}

// TestContendedAcquireAllocs pins the contended in-process path — the
// benchmark's mem_closed shape: 8 nodes, 32 resources, 8 closed-loop
// callers asking for 1–8 resources each, so nearly every acquire
// crosses nodes and most wait on one another. Counted from outside with
// runtime.MemStats (every object of the process, the callers' release
// closures included). The protocol's share is what the budget guards:
// core refills the batch records it was sent instead of building each
// message out of fresh slices, which was 66 objects per acquire.
func TestContendedAcquireAllocs(t *testing.T) {
	if leakcheck.Race {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const n, m, phi = 8, 32, 8
	const warm, measured = 300, 1000 // acquires per caller
	c, err := New(Config{Nodes: n, Resources: m}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Requests are drawn up front: the measured window runs no
	// generator.
	reqs := make([][][]int, n)
	for node := range reqs {
		rng := rand.New(rand.NewSource(int64(node) + 1))
		for i := 0; i < warm+measured; i++ {
			reqs[node] = append(reqs[node], rng.Perm(m)[:1+rng.Intn(phi)])
		}
	}
	ctx := context.Background()
	run := func(from, to int) {
		var wg sync.WaitGroup
		for node := 0; node < n; node++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, ids := range reqs[node][from:to] {
					release, err := c.Acquire(ctx, node, ids...)
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
	run(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+measured)
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / (n * measured)
	t.Logf("%.2f objects per contended acquire", perOp)
	if perOp > 6 {
		t.Errorf("%.2f objects per contended acquire, budget 6", perOp)
	}
}
