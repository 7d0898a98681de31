// Package bench holds the live cells cmd/bench profiles one at a time
// and the three performance claims the test suite pins as same-run
// ratios. The repository's numbers come from benchmark/ (see its
// README); nothing here writes or reads a report.
//
// A cell is a func(*testing.B) that assembles a deployment, drives b.N
// contended acquire/release cycles through it and reports protocol and
// wire counters through b.ReportMetric:
//
//	tcploop/n4/{s8,s32}/batch                 client sessions over two loopback daemons
//	largeN/n{128,512}/{delta,nodelta}         token state on the wire at large N
//	sharded/g{1,4,16}/single                  shard parallelism on the latency fabric
//	sharded/g{4,16}/cross/{ordered,twophase}  the two cross-shard compositions
//
// The claims, each comparing two measurements of one test run
// (bench_test.go, openloop_test.go): G=4 shards move the sharded
// workload's protocol traffic ≥ 2.5× faster than G=1; delta tokens move
// ≤ 0.80× the wire bytes per op at N=128; past the knee an unbounded
// FIFO queue collapses while Adaptive admission holds p99 (RunOpenLoop).
//
// The socket cells' protocol counters (msg_per_cs, wire_bytes_per_op)
// are stable across machines to within run jitter; ns/op and allocs/op
// are not, and neither is a sharded cell's msg_per_cs (sharded.go).
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Cell is one named measurement.
type Cell struct {
	// Name is the stable identifier, e.g. "tcploop/n4/s8/batch";
	// cmd/bench -run matches it by substring.
	Name string
	Run  func(b *testing.B)
}

// Cells lists every cell, in print order.
func Cells() []Cell {
	cells := []Cell{tcpLoopCell(4, 8), tcpLoopCell(4, 32)}
	for _, n := range []int{128, 512} {
		cells = append(cells, largeNCell(n, true), largeNCell(n, false))
	}
	return append(cells, shardedCells()...)
}

// Measure runs c under testing.Benchmark. A cell that called b.Fatal
// or b.Error leaves a zero result and its message is discarded by the
// testing package, so that case is reported as an error here.
func Measure(c Cell) (testing.BenchmarkResult, error) {
	r := testing.Benchmark(c.Run)
	if r.N == 0 {
		return r, fmt.Errorf("%s: cell failed", c.Name)
	}
	return r, nil
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
