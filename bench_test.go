// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) plus the extensions and ablations of
// internal/experiments. Each benchmark iteration runs the full
// experiment at a reduced scale and reports the headline metric
// alongside ns/op, so
//
//	go test -bench=. -benchmem
//
// doubles as a one-command reproduction smoke run. `mrsim fig` and
// `mrsim sweep` produce the full-scale numbers.
package mralloc

import (
	"context"
	"testing"

	"mralloc/internal/experiments"
	"mralloc/internal/sim"
)

// benchScale keeps a single iteration around a third of a second.
var benchScale = experiments.Scale{
	Warmup:  100 * sim.Millisecond,
	Horizon: 1 * sim.Second,
	Seeds:   1,
}

// reportCell attaches experiment metrics to the benchmark output.
func reportCell(b *testing.B, c experiments.Cell) {
	b.ReportMetric(100*c.UseRate, "use%")
	b.ReportMetric(c.WaitMean, "wait_ms")
	b.ReportMetric(c.MsgPerGrant, "msg/cs")
}

// benchFigure runs a whole figure per iteration.
func benchFigure(b *testing.B, run func(experiments.Scale) (experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5a_UseRate_MediumLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure5(experiments.MediumLoad, sc)
	})
}

func BenchmarkFig5b_UseRate_HighLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure5(experiments.HighLoad, sc)
	})
}

func BenchmarkFig6a_Waiting_MediumLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure6(experiments.MediumLoad, sc)
	})
}

func BenchmarkFig6b_Waiting_HighLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure6(experiments.HighLoad, sc)
	})
}

func BenchmarkFig7a_WaitingBySize_MediumLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure7(experiments.MediumLoad, sc)
	})
}

func BenchmarkFig7b_WaitingBySize_HighLoad(b *testing.B) {
	benchFigure(b, func(sc experiments.Scale) (experiments.Table, error) {
		return experiments.Figure7(experiments.HighLoad, sc)
	})
}

func BenchmarkAblationLoanThreshold(b *testing.B) {
	benchFigure(b, experiments.ThresholdSweep)
}

func BenchmarkAblationMarkFunction(b *testing.B) {
	benchFigure(b, experiments.MarkSweep)
}

func BenchmarkAblationOptimizations(b *testing.B) {
	benchFigure(b, experiments.OptsSweep)
}

func BenchmarkExtensionCloudTopology(b *testing.B) {
	benchFigure(b, experiments.CloudExperiment)
}

// BenchmarkAlgorithm measures one simulated second of each competitor
// under the paper's high-load φ=16 point — the per-algorithm cost of
// the simulation itself plus the experiment metrics.
func BenchmarkAlgorithm(b *testing.B) {
	for _, a := range []experiments.Algorithm{
		experiments.Incremental,
		experiments.Bouabdallah,
		experiments.WithoutLoan,
		experiments.WithLoan,
		experiments.SharedMem,
	} {
		a := a
		b.Run(string(a), func(b *testing.B) {
			b.ReportAllocs()
			var last experiments.Cell
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(experiments.Point{
					Alg: a, Phi: 16, Load: experiments.HighLoad,
				}, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				last = cell
			}
			reportCell(b, last)
		})
	}
}

// BenchmarkSimulatorThroughput measures raw kernel speed: simulator
// events per wall-clock second on the heaviest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Point{
			Alg: experiments.WithLoan, Phi: 80, Load: experiments.HighLoad, Seed: 1,
		}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkMessageComplexity(b *testing.B) {
	benchFigure(b, experiments.MessageComplexity)
}

func BenchmarkFairness(b *testing.B) {
	benchFigure(b, experiments.FairnessSweep)
}

// BenchmarkLiveClusterAcquire measures end-to-end Acquire/Release
// latency on the goroutine runtime with mild contention.
func BenchmarkLiveClusterAcquire(b *testing.B) {
	c, err := NewCluster(ClusterConfig{Nodes: 4, Resources: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release, err := c.Acquire(ctx, i%4, i%16, (i+5)%16)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}

func BenchmarkExtensionHotspot(b *testing.B) {
	benchFigure(b, experiments.HotspotSweep)
}
