package bench

import (
	"context"
	"fmt"
	"testing"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
	"mralloc/internal/wire"
)

// loopM is the resource universe of the socket cells; requests take 2
// resources, so conflicts are common but not total at 32.
const loopM = 32

// loopPair is worker w's resource pair at operation i.
func loopPair(w int, i int64) (r1, r2 int) {
	r1 = int(i+int64(w*7)) % loopM
	return r1, (r1 + 11) % loopM
}

// loopback is what two mrallocd processes would be, assembled in one:
// per daemon a TCP peer transport on 127.0.0.1 (every cross-half
// protocol message crosses a real socket) and a live cluster hosting
// half the nodes; with client ports, also a serve.Server and one
// dialled serve.Client each.
type loopback struct {
	trs      []*transport.TCP
	clusters []*live.Cluster
	servers  []*serve.Server
	clients  []*serve.Client
}

// startLoopback assembles the two daemons. lc carries what the tiers
// vary — Nodes (even), Policy, AdmitTarget; Resources, Transport, Local
// and Wire are filled in here, Wire as mrallocd sets it (delta on). An
// Adaptive policy also wires the cluster's load oracle into the client
// ports, so the daemons shed at the self-tuned bound.
func startLoopback(lc live.Config, ports bool) (*loopback, error) {
	var locals [2][]int
	for i := 0; i < lc.Nodes; i++ {
		d := i * 2 / lc.Nodes
		locals[d] = append(locals[d], i)
	}
	f := &loopback{}
	fail := func(err error) (*loopback, error) {
		f.close()
		return nil, err
	}
	addrs := make([]string, lc.Nodes)
	for _, local := range locals {
		tr, err := transport.ListenTCP("127.0.0.1:0", lc.Nodes, local...)
		if err != nil {
			return fail(err)
		}
		f.trs = append(f.trs, tr)
		for _, id := range local {
			addrs[id] = tr.Addr()
		}
	}
	for d, local := range locals {
		if err := f.trs[d].Connect(addrs); err != nil {
			return fail(err)
		}
		cfg := lc
		cfg.Resources, cfg.Transport, cfg.Local = loopM, f.trs[d], local
		cfg.Wire = transport.WireOptions{Delta: true}
		c, err := live.New(cfg, core.NewFactory(core.WithLoan()))
		if err != nil {
			return fail(err)
		}
		f.clusters = append(f.clusters, c)
		if !ports {
			continue
		}
		scfg := serve.ServerConfig{
			Listen:    "127.0.0.1:0",
			Nodes:     lc.Nodes,
			Resources: loopM,
			Local:     local,
			Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
		}
		if lc.Policy == serve.Adaptive {
			scfg.Overloaded = c.Overloaded
			scfg.NoteShed = c.NoteShed
		}
		srv, err := serve.NewServer(scfg)
		if err != nil {
			return fail(err)
		}
		f.servers = append(f.servers, srv)
		cl, err := serve.Dial(srv.Addr())
		if err != nil {
			return fail(err)
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

func (f *loopback) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, c := range f.clusters {
		c.Close() // closes its transport
	}
	// Transports no cluster adopted (assembly error paths); Close is
	// idempotent, so an adopted one costs nothing.
	for _, tr := range f.trs {
		tr.Close()
	}
}

// wireStats sums the egress counters of every coalescing writer in
// the deployment: peer transports, client ports, and clients.
func (f *loopback) wireStats() wire.CoalescerStats {
	var total wire.CoalescerStats
	for _, tr := range f.trs {
		total.Add(tr.WireStats())
	}
	for _, s := range f.servers {
		total.Add(s.WireStats())
	}
	for _, cl := range f.clients {
		total.Add(cl.WireStats())
	}
	return total
}

// peerMsgs sums the per-kind protocol message counters of both
// clusters.
func (f *loopback) peerMsgs() int64 {
	var total int64
	for _, c := range f.clusters {
		total += sumStats(c.Stats())
	}
	return total
}

func sumStats(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}

// socketCell drives workers concurrent callers through a loopback
// deployment, acquire(f, w, i) being worker w's acquisition at
// operation i. One op is one granted-and-released acquisition; the
// wire counters exclude the deployment's set-up traffic.
func socketCell(name string, lc live.Config, ports bool, workers int,
	acquire func(f *loopback, w int, i int64) (release func(), err error)) cell {
	return cell{name, func(b *testing.B) {
		f, err := startLoopback(lc, ports)
		if err != nil {
			b.Fatal(err)
		}
		defer f.close()
		b.ReportAllocs()
		b.ResetTimer()
		base, msgBase := f.wireStats(), f.peerMsgs()
		driveClosed(b, workers, func(w int, i int64) error {
			release, err := acquire(f, w, i)
			if err != nil {
				return err
			}
			release()
			return nil
		})
		b.StopTimer()

		now, n := f.wireStats(), float64(b.N)
		b.ReportMetric(float64(now.Writes-base.Writes)/n, "writes_per_op")
		b.ReportMetric(float64(now.Bytes-base.Bytes)/n, "wire_bytes_per_op")
		if flushes := now.Flushes - base.Flushes; flushes > 0 {
			b.ReportMetric(float64(now.Frames-base.Frames)/float64(flushes), "avg_batch_frames")
		}
		b.ReportMetric(float64(f.peerMsgs()-msgBase)/n, "msg_per_cs")
	}}
}

// tcpLoopCell has sessions concurrent client sessions acquire through
// the client ports, on a daemon-picked node: the whole wire path of a
// client Acquire→Release, under the algorithms the simulator measures.
func tcpLoopCell(nodes, sessions int) cell {
	ctx := context.Background()
	return socketCell(fmt.Sprintf("tcploop/n%d/s%d/batch", nodes, sessions),
		live.Config{Nodes: nodes}, true, sessions,
		func(f *loopback, w int, i int64) (func(), error) {
			r1, r2 := loopPair(w, i)
			return f.clients[w%len(f.clients)].Acquire(ctx, serve.AnyNode, r1, r2)
		})
}

// largeNSessions is the concurrent caller count of a largeN cell.
const largeNSessions = 32

// largeNCell drives the clusters directly at a size where token state
// dominates the wire: a token carries two N-sized stamp vectors, so
// every LASS.Response ships hundreds to thousands of bytes of
// mostly-unchanged state, which the delta-encoded tokens of every peer
// link cut (core's TestDeltaTokensCutBytes prices that cut on this
// cell's shape and request pattern).
func largeNCell(nodes int) cell {
	ctx := context.Background()
	return socketCell(fmt.Sprintf("largeN/n%d", nodes),
		live.Config{Nodes: nodes}, false, largeNSessions,
		func(f *loopback, w int, i int64) (func(), error) {
			node := int(i+int64(w*13)) % nodes
			r1, r2 := loopPair(w, i)
			return f.clusters[node*2/nodes].Acquire(ctx, node, r1, r2)
		})
}
