package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// The largeN tier: real loopback sockets at cluster sizes where token
// state dominates the wire. A token carries two N-sized stamp vectors,
// so at N∈{128,512} every LASS.Response ships hundreds to thousands of
// bytes of mostly-unchanged state — exactly what the delta-encoded
// token path exists to cut. Each cell assembles two in-process daemons
// (one TCP peer endpoint per half, every cross-half protocol message
// over a real socket) and drives concurrent acquire/release cycles
// straight through the live clusters.
//
// Twins per N, toggling the one payload-path axis:
//
//	delta   — delta tokens on (the full payload path)
//	nodelta — delta tokens off
//
// The workload and protocol traffic are identical across twins
// (msg_per_cs matches within run jitter); wire_bytes_per_op is the
// column the pair pins.

// largeNM is the tier's resource universe; requests take 2 resources.
const largeNM = 32

// largeNSessions is the concurrent driver count per cell.
const largeNSessions = 32

type largeNCell struct {
	trs      []*transport.TCP
	clusters []*live.Cluster
}

func startLargeNCell(b *testing.B, nodes int, wireOpts transport.WireOptions) *largeNCell {
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
	cell := &largeNCell{}
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
			Resources: largeNM,
			Transport: cell.trs[d],
			Local:     locals[d],
			Wire:      wireOpts,
		}, core.NewFactory(core.WithLoan()))
		if err != nil {
			b.Fatal(err)
		}
		cell.clusters = append(cell.clusters, c)
	}
	return cell
}

func (c *largeNCell) close() {
	for _, cl := range c.clusters {
		cl.Close() // closes its transport
	}
}

func (c *largeNCell) wireStats() wire.CoalescerStats {
	var total wire.CoalescerStats
	for _, tr := range c.trs {
		total.Add(tr.WireStats())
	}
	return total
}

func (c *largeNCell) peerMsgs() int64 {
	var total int64
	for _, tr := range c.trs {
		for _, v := range tr.Stats() {
			total += v
		}
	}
	return total
}

// largeNScenario benchmarks largeNSessions concurrent workers driving
// acquire/release cycles of 2 resources each across both halves. One
// op is one granted-and-released acquisition.
func largeNScenario(nodes int, tag string, wireOpts transport.WireOptions) Scenario {
	s := Scenario{Name: fmt.Sprintf("largeN/n%d/%s", nodes, tag)}
	var lastHist string
	s.Run = func(b *testing.B) {
		cell := startLargeNCell(b, nodes, wireOpts)
		defer cell.close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		wireBase, msgBase := cell.wireStats(), cell.peerMsgs()

		var next atomic.Int64
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < largeNSessions; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) || failed.Load() {
						return
					}
					node := int(i+int64(w*13)) % nodes
					cl := cell.clusters[node*2/nodes]
					r1 := int(i+int64(w*7)) % largeNM
					r2 := (r1 + 11) % largeNM
					release, err := cl.Acquire(ctx, node, r1, r2)
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
		var histDelta wire.CoalescerStats
		for i := range histDelta.Hist {
			histDelta.Hist[i] = wireNow.Hist[i] - wireBase.Hist[i]
		}
		lastHist = histDelta.HistString()
	}
	s.Post = func(r *Result) { r.BatchHist = lastHist }
	return s
}

// LargeNGrid is the payload-path tier: N∈{128,512}, delta on and off.
func LargeNGrid() []Scenario {
	var out []Scenario
	for _, n := range []int{128, 512} {
		out = append(out,
			largeNScenario(n, "delta", transport.WireOptions{Delta: true}),
			largeNScenario(n, "nodelta", transport.WireOptions{Delta: false}),
		)
	}
	return out
}
