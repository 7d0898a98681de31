package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/metrics"
)

// The sharded tier: the same contended workload on the same cluster
// shape (N nodes, M resources, the in-process fabric with a fixed
// per-link delivery latency), varying only the shard count G. The
// latency fabric serializes each (shard, sender, destination) link —
// one delivery per 200µs — so a flat universe funnels every block's
// protocol traffic through one link pair while G shards pipeline G
// link pairs; the tier prices exactly that, on one core, as critical
// sections per second.
//
// The workload is identical across G: the M=64 universe is cut into 16
// G16-aligned blocks of 4, every draw stays inside its worker's block
// (single cells) or spans a fixed block pair (cross cells), and the
// resource ids drawn at iteration i do not depend on G. Two workers
// per block — one per node — contend for it, so tokens ping-pong over
// the fabric on every critical section and the links stay on the
// critical path; without the contention the loan protocol parks the
// tokens locally and every cell collapses to the message-free fast
// path. How often a holder re-acquires locally before the other node's
// request arrives is up to the scheduler, so msg_per_cs drifts (0.3–1.1
// from run to run) and ns/op with it; ns/op ÷ msg_per_cs, wall time per
// protocol message, is the quantity that repeats.
//
// Cross cells span two blocks 8 apart, which land in different shards
// at every G>1, so every acquisition takes its two shards in ascending
// order. One op is one granted-and-released acquisition, so ns/op is
// directly comparable across cells, and the workers add their waits
// into one accumulator under a lock: one uncontended lock per granted
// op, against at least one 200µs hop per protocol message on this
// fabric.
const (
	shardedM       = 64
	shardedBlocks  = 16 // one block = one G16 shard
	shardedBlockSz = shardedM / shardedBlocks
	shardedLatency = 200 * time.Microsecond
)

// shardedDraw yields worker w's resource pair at iteration i. The
// draw must not depend on G — that is what makes cells comparable.
type shardedDraw func(w int, i int64) (r1, r2 int)

// singleDraw keeps both resources inside worker w's own block, so the
// acquisition is single-shard at every G.
func singleDraw(w int, i int64) (int, int) {
	lo := (w / 2) * shardedBlockSz
	return lo + int(i)%shardedBlockSz, lo + (int(i)+2)%shardedBlockSz
}

// crossDraw spans blocks p and p+8: different shards at G=4 (shards
// p/4 and p/4+2) and at G=16 (shards p and p+8), one part at G=1.
func crossDraw(w int, i int64) (int, int) {
	p := w / 2
	return p*shardedBlockSz + int(i)%shardedBlockSz,
		(p+shardedBlocks/2)*shardedBlockSz + int(i)%shardedBlockSz
}

func shardedCell(name string, g int, workers int, draw shardedDraw) cell {
	return cell{name, func(b *testing.B) {
		c, err := live.New(live.Config{
			Nodes:     2,
			Resources: shardedM,
			Latency:   shardedLatency,
			Shards:    g,
		}, core.NewFactory(core.WithLoan()))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		base := sumStats(c.Stats())
		var (
			mu   sync.Mutex
			wait metrics.Accum
		)
		b.ReportAllocs()
		b.ResetTimer()
		driveClosed(b, workers, func(w int, i int64) error {
			r1, r2 := draw(w, i)
			start := time.Now()
			release, err := c.Acquire(ctx, w%2, r1, r2)
			if err != nil {
				return err
			}
			waited := float64(time.Since(start)) / float64(time.Millisecond)
			mu.Lock()
			wait.Add(waited)
			mu.Unlock()
			release()
			return nil
		})
		b.StopTimer()

		s := wait.Summary()
		b.ReportMetric(s.Mean, "wait_mean_ms")
		b.ReportMetric(s.P50, "wait_p50_ms")
		b.ReportMetric(s.P95, "wait_p95_ms")
		b.ReportMetric(s.P99, "wait_p99_ms")
		b.ReportMetric(float64(sumStats(c.Stats())-base)/float64(b.N), "msg_per_cs")
	}}
}

// shardedCells is the single-shard workload at G∈{1,4,16} (the
// parallel-allocators scaling claim) and the cross-shard block-pair
// workload at G∈{4,16}.
func shardedCells() []cell {
	var out []cell
	for _, g := range []int{1, 4, 16} {
		out = append(out, shardedCell(
			fmt.Sprintf("sharded/g%d/single", g), g, 2*shardedBlocks, singleDraw))
	}
	for _, g := range []int{4, 16} {
		out = append(out, shardedCell(
			fmt.Sprintf("sharded/g%d/cross/ordered", g), g, shardedBlocks, crossDraw))
	}
	return out
}
