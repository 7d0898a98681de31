// Package bench holds the live cells, run as sub-benchmarks, and the
// two performance claims the test suite pins as same-run ratios. The
// repository's numbers come from benchmark/ (see its README); nothing
// here writes or reads a report.
//
// A cell is a func(*testing.B) that assembles a deployment, drives b.N
// contended acquire/release cycles through it and reports protocol and
// wire counters through b.ReportMetric:
//
//	tcploop/n4/{s8,s32}/batch      client sessions over two loopback daemons
//	largeN/n{128,512}              token state on the wire at large N
//	sharded/g{1,4,16}/single       shard parallelism on the latency fabric
//	sharded/g{4,16}/cross/ordered  cross-shard sets, shards taken in ascending order
//
// The first element of a cell's name is its benchmark family, so a
// cell name is a -bench pattern that selects that cell:
//
//	go test -run '^$' -bench tcploop/n4/s8/batch -count 3 ./internal/bench/
//	go test -run '^$' -bench largeN -cpuprofile cpu.prof ./internal/bench/
//	go test -run '^$' -bench . -benchtime 1x ./internal/bench/  # every cell, one op each
//
// The claims, each comparing two measurements of one test run
// (bench_test.go, openloop_test.go): G=4 shards move the sharded
// workload's protocol traffic ≥ 2.5× faster than G=1; past the knee an
// unbounded FIFO queue collapses while Adaptive admission holds p99
// (runOpenLoop). The delta-token claim needs no live twin and is a
// deterministic codec test in core (TestDeltaTokensCutBytes).
//
// The socket cells' protocol counters (msg_per_cs, wire_bytes_per_op)
// are stable across machines to within run jitter; ns/op and allocs/op
// are not, and neither is a sharded cell's msg_per_cs (sharded_test.go).
package bench

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// cell is one named measurement.
type cell struct {
	name string // e.g. "tcploop/n4/s8/batch": family/rest
	run  func(b *testing.B)
}

// cells lists every cell, in run order.
func cells() []cell {
	cs := []cell{tcpLoopCell(4, 8), tcpLoopCell(4, 32)}
	for _, n := range []int{128, 512} {
		cs = append(cs, largeNCell(n))
	}
	return append(cs, shardedCells()...)
}

// families are the benchmarks below, one per first element of a cell
// name.
var families = []string{"tcploop", "largeN", "sharded"}

func Benchmark_tcploop(b *testing.B) { runFamily(b, "tcploop") }
func Benchmark_largeN(b *testing.B)  { runFamily(b, "largeN") }
func Benchmark_sharded(b *testing.B) { runFamily(b, "sharded") }

// runFamily runs each cell of the family as a sub-benchmark named by
// the rest of the cell's name.
func runFamily(b *testing.B, family string) {
	for _, c := range cells() {
		if rest, ok := strings.CutPrefix(c.name, family+"/"); ok {
			b.Run(rest, c.run)
		}
	}
}

// driveClosed is the closed loop every cell runs: workers goroutines
// share b.N operations, op(w, i) being operation i on worker w — one
// acquisition, granted and released. It returns when all are done; the
// first error fails b and stops the rest.
func driveClosed(b *testing.B, workers int, op func(w int, i int64) error) {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) || failed.Load() {
					return
				}
				if err := op(w, i); err != nil {
					// b.Fatal would Goexit a non-benchmark goroutine,
					// which the testing package forbids.
					b.Error(err)
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// measure runs the named cell once under testing.Benchmark. A cell that
// called b.Fatal or b.Error leaves a zero result, its message discarded
// by the testing package, so that case fails t here.
func measure(t *testing.T, name string) testing.BenchmarkResult {
	t.Helper()
	for _, c := range cells() {
		if c.name == name {
			r := testing.Benchmark(c.run)
			if r.N == 0 {
				t.Fatalf("%s: cell failed", name)
			}
			return r
		}
	}
	t.Fatalf("no cell named %q", name)
	return testing.BenchmarkResult{}
}

// TestCellNamesUnique: a cell name is a -bench pattern, so each must be
// present, runnable, distinct and under one of the family benchmarks.
func TestCellNamesUnique(t *testing.T) {
	names := make(map[string]bool)
	for _, c := range cells() {
		if c.name == "" || c.run == nil {
			t.Fatalf("malformed cell %+v", c)
		}
		if names[c.name] {
			t.Fatalf("duplicate cell name %q", c.name)
		}
		names[c.name] = true
		if family, _, _ := strings.Cut(c.name, "/"); !slices.Contains(families, family) {
			t.Fatalf("cell %q is in no family benchmark %v", c.name, families)
		}
	}
}

// TestTCPLoopbackSmoke runs one tcp-loopback cell end to end — real
// sockets, real daemons, real serve.Clients — and checks that the
// wire-path metrics the cell exists to report are present and sane.
func TestTCPLoopbackSmoke(t *testing.T) {
	r := measure(t, "tcploop/n4/s8/batch")
	if r.NsPerOp() <= 0 || r.AllocsPerOp() <= 0 {
		t.Fatalf("no wall-clock measurement: %v %v", r, r.MemString())
	}
	for _, key := range []string{"writes_per_op", "wire_bytes_per_op", "msg_per_cs"} {
		if r.Extra[key] <= 0 {
			t.Errorf("%s missing or zero: %v", key, r)
		}
	}
	if r.Extra["avg_batch_frames"] < 1 {
		t.Errorf("avg batch below one frame per flush: %v", r)
	}
}

// checkSharded is the per-cell sanity of a sharded measurement.
func checkSharded(t *testing.T, name string, r testing.BenchmarkResult) {
	t.Helper()
	if r.NsPerOp() <= 0 || r.AllocsPerOp() <= 0 {
		t.Fatalf("%s: no wall-clock measurement: %v", name, r)
	}
	if r.Extra["msg_per_cs"] <= 0 {
		t.Fatalf("%s: no protocol traffic — the contention pattern collapsed to the local fast path: %v", name, r)
	}
	if p50, p95, p99 := r.Extra["wait_p50_ms"], r.Extra["wait_p95_ms"], r.Extra["wait_p99_ms"]; p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("%s: wait quantiles missing or not monotone: %v", name, r)
	}
}

// TestShardedScales pins the parallel-allocators claim: on the latency
// fabric G=4 shards move the single-shard workload's protocol traffic
// ≥ 2.5× faster than G=1. Both cells are measured here, in one run on
// one machine; the gate is 0.9 × the claim on the best of up to three
// rounds.
//
// The quantity compared is wall time per protocol message, ns/op ÷
// msg_per_cs. Raw ns/op is that times how often a token changes node,
// and the second factor drifts with scheduling: a holder re-acquires
// locally until the other node's request has crossed the fabric, so
// msg_per_cs of one cell ranges 0.3–1.1 from run to run and the ns/op
// ratio (logged too) 1.0–5.3×, while time per message repeats to a few
// per cent (G=1 ≈ 575µs, G=4 ≈ 147µs: the four pipelined link pairs).
func TestShardedScales(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio of two benchmark cells in -short mode")
	}
	const gate = 0.9 * 2.5
	perMsg := func(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) / r.Extra["msg_per_cs"] }
	best := 0.0
	for round := 0; round < 3 && best < gate; round++ {
		r1, r4 := measure(t, "sharded/g1/single"), measure(t, "sharded/g4/single")
		checkSharded(t, "sharded/g1/single", r1)
		checkSharded(t, "sharded/g4/single", r4)
		ratio := perMsg(r1) / perMsg(r4)
		t.Logf("round %d: g1 %d ns/op at %.3f msg/cs, g4 %d ns/op at %.3f msg/cs: per message %.0f vs %.0f ns, %.2f× (ns/op %.2f×)",
			round, r1.NsPerOp(), r1.Extra["msg_per_cs"], r4.NsPerOp(), r4.Extra["msg_per_cs"],
			perMsg(r1), perMsg(r4), ratio, float64(r1.NsPerOp())/float64(r4.NsPerOp()))
		best = max(best, ratio)
	}
	if best < gate {
		t.Fatalf("G=4 speedup over G=1 per protocol message: best round %.2f×, want ≥ %.2f× (0.9 × the 2.5× claim)", best, gate)
	}
}

// TestShardedCrossTwins smoke-runs the G=4 cross-shard cell: ordered
// shard locking must move real cross-shard traffic and report sane
// waits.
func TestShardedCrossTwins(t *testing.T) {
	if testing.Short() {
		t.Skip("a benchmark cell in -short mode")
	}
	const name = "sharded/g4/cross/ordered"
	checkSharded(t, name, measure(t, name))
}
