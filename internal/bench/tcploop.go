package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// The tcp-loopback tier: real daemons on 127.0.0.1. Each cell
// assembles what two mrallocd processes would be — a TCP peer
// transport per daemon (so every cross-half protocol message crosses a
// real socket), a live cluster hosting half the nodes, a client port,
// and serve.Clients driving concurrent sessions through the wire
// protocol. This is the ROADMAP's missing multi-process bench
// scenario: the sim grid measures the algorithms, this tier measures
// the wire path under them.

// tcpLoopM is the resource universe of the tier; requests take 2
// resources, so conflicts are common but not total at 32.
const tcpLoopM = 32

// tcpLoopCell is one assembled two-daemon loopback deployment.
type tcpLoopCell struct {
	trs      []*transport.TCP
	clusters []*live.Cluster
	servers  []*serve.Server
	clients  []*serve.Client
}

func startTCPLoopCell(b *testing.B, nodes int) *tcpLoopCell {
	b.Helper()
	half := nodes / 2
	locals := [2][]int{}
	for i := 0; i < nodes; i++ {
		if i < half {
			locals[0] = append(locals[0], i)
		} else {
			locals[1] = append(locals[1], i)
		}
	}
	cell := &tcpLoopCell{}
	addrs := make([]string, nodes)
	for d := 0; d < 2; d++ {
		tr, err := transport.ListenTCP("127.0.0.1:0", nodes, locals[d]...)
		if err != nil {
			b.Fatal(err)
		}
		cell.trs = append(cell.trs, tr)
		for _, id := range locals[d] {
			addrs[id] = tr.Addr()
		}
	}
	for d := 0; d < 2; d++ {
		if err := cell.trs[d].Connect(addrs); err != nil {
			b.Fatal(err)
		}
		c, err := live.New(live.Config{
			Nodes:     nodes,
			Resources: tcpLoopM,
			Transport: cell.trs[d],
			Local:     locals[d],
		}, core.NewFactory(core.WithLoan()))
		if err != nil {
			b.Fatal(err)
		}
		cell.clusters = append(cell.clusters, c)
		srv, err := serve.NewServer(serve.ServerConfig{
			Listen:    "127.0.0.1:0",
			Nodes:     nodes,
			Resources: tcpLoopM,
			Local:     locals[d],
			Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
		})
		if err != nil {
			b.Fatal(err)
		}
		cell.servers = append(cell.servers, srv)
		cl, err := serve.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		cell.clients = append(cell.clients, cl)
	}
	return cell
}

func (c *tcpLoopCell) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, cl := range c.clusters {
		cl.Close() // closes its transport
	}
}

// wireStats sums the egress counters of every coalescing writer in
// the deployment: peer transports, client ports, and clients.
func (c *tcpLoopCell) wireStats() wire.CoalescerStats {
	var total wire.CoalescerStats
	for _, tr := range c.trs {
		total.Add(tr.WireStats())
	}
	for _, s := range c.servers {
		total.Add(s.WireStats())
	}
	for _, cl := range c.clients {
		total.Add(cl.WireStats())
	}
	return total
}

// peerMsgs sums the per-kind protocol message counters of both peer
// endpoints.
func (c *tcpLoopCell) peerMsgs() int64 {
	var total int64
	for _, tr := range c.trs {
		for _, v := range tr.Stats() {
			total += v
		}
	}
	return total
}

// tcpLoopScenario benchmarks sessions concurrent client sessions
// driving acquire/release cycles through the two-daemon loopback
// deployment. One op is one granted-and-released acquisition of two
// resources on a daemon-picked node.
func tcpLoopScenario(nodes, sessions int) Scenario {
	s := Scenario{Name: fmt.Sprintf("tcploop/n%d/s%d/batch", nodes, sessions)}
	var lastHist string
	s.Run = func(b *testing.B) {
		cell := startTCPLoopCell(b, nodes)
		defer cell.close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		wireBase, msgBase := cell.wireStats(), cell.peerMsgs()

		var next atomic.Int64
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < sessions; w++ {
			w := w
			cl := cell.clients[w%len(cell.clients)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) || failed.Load() {
						return
					}
					r1 := int(i+int64(w*7)) % tcpLoopM
					r2 := (r1 + 11) % tcpLoopM
					release, err := cl.Acquire(ctx, serve.AnyNode, r1, r2)
					if err != nil {
						// b.Fatal would Goexit a non-benchmark goroutine,
						// which the testing package forbids.
						b.Error(err)
						failed.Store(true)
						return
					}
					release()
				}
			}()
		}
		wg.Wait()
		b.StopTimer()

		wireNow, msgNow := cell.wireStats(), cell.peerMsgs()
		writes := wireNow.Writes - wireBase.Writes
		flushes := wireNow.Flushes - wireBase.Flushes
		frames := wireNow.Frames - wireBase.Frames
		bytes := wireNow.Bytes - wireBase.Bytes
		n := float64(b.N)
		b.ReportMetric(float64(writes)/n, "writes_per_op")
		b.ReportMetric(float64(bytes)/n, "wire_bytes_per_op")
		if flushes > 0 {
			b.ReportMetric(float64(frames)/float64(flushes), "avg_batch_frames")
		}
		b.ReportMetric(float64(msgNow-msgBase)/n, "msg_per_cs")
		b.ReportMetric(1, "grants_per_op")
		// Delta histogram: like the other wire columns, exclude the
		// cell's setup traffic so sum(hist) matches the flush delta.
		var histDelta wire.CoalescerStats
		for i := range histDelta.Hist {
			histDelta.Hist[i] = wireNow.Hist[i] - wireBase.Hist[i]
		}
		lastHist = histDelta.HistString()
	}
	s.Post = func(r *Result) { r.BatchHist = lastHist }
	return s
}

// TCPLoopGrid is the tcp-loopback tier: 4 nodes split across two
// daemons, a light and a heavy sessions count.
func TCPLoopGrid() []Scenario {
	return []Scenario{tcpLoopScenario(4, 8), tcpLoopScenario(4, 32)}
}
