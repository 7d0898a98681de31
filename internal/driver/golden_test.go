package driver

import (
	"fmt"
	"math"
	"testing"

	"mralloc/internal/core"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

// runFingerprint renders everything a protocol change could move in one
// run: grants, per-kind message counts, simulator events, and the bit
// patterns of the mean wait and the use rate.
func runFingerprint(res Result) string {
	s := fmt.Sprintf("grants=%d events=%d", res.Grants, res.Events)
	for _, k := range res.Messages.Kinds() {
		s += fmt.Sprintf(" %s=%d", k, res.Messages.ByKind[k])
	}
	return s + fmt.Sprintf(" wait=%016x use=%016x",
		math.Float64bits(res.Waiting.Mean), math.Float64bits(res.UseRate))
}

// paperConfig is the benchmark's sim_paper point: N=32, M=80, φ=16,
// ρ=0.1, 600 µs links and receivers.
func paperConfig(seed int64, horizon sim.Time) Config {
	return Config{
		Workload: workload.Config{
			N: 32, M: 80, Phi: 16,
			AlphaMin: 5 * sim.Millisecond, AlphaMax: 35 * sim.Millisecond,
			Gamma: 600 * sim.Microsecond, Rho: 0.1, Seed: seed,
		},
		Processing: 600 * sim.Microsecond,
		Warmup:     200 * sim.Millisecond,
		Horizon:    horizon,
	}
}

// TestRunGoldens pins driver.Run across commits (TestRunDeterministic
// only compares a run with itself): three seeds at the benchmark's
// sim_paper point (N=32, M=80, φ=16, ρ=0.1, loan) and three at N=8,
// M=16, φ=4 without loan. The protocol decides every number here, so a
// change that only moves memory around must leave them bit-identical;
// a change that means to alter the protocol re-records them and says so.
func TestRunGoldens(t *testing.T) {
	paper := func(seed int64) Config { return paperConfig(seed, 4*sim.Second) }
	small := func(seed int64) Config {
		cfg := smallConfig()
		cfg.Workload.Seed = seed
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		opt  core.Options
		want string
	}{
		{"paper/1", paper(1), core.WithLoan(),
			"grants=709 events=44836 LASS.Request=32655 LASS.Response=10755 wait=40653e598e02ae91 use=3fc46b61a8ca7b20"},
		{"paper/2", paper(2), core.WithLoan(),
			"grants=675 events=42251 LASS.Request=30471 LASS.Response=10401 wait=4066684d233030f0 use=3fc3f90ff0556ed9"},
		{"paper/3", paper(3), core.WithLoan(),
			"grants=683 events=42426 LASS.Request=30792 LASS.Response=10243 wait=4066264454271236 use=3fc3ae40a0dfe053"},
		{"small/1", small(1), core.WithoutLoan(),
			"grants=471 events=5520 LASS.Request=2914 LASS.Response=1664 wait=40322ff92a980be5 use=3fd450829bca6446"},
		{"small/2", small(2), core.WithoutLoan(),
			"grants=463 events=5468 LASS.Request=2841 LASS.Response=1701 wait=4032a6552f9c3965 use=3fd4875980288216"},
		{"small/3", small(3), core.WithoutLoan(),
			"grants=453 events=5582 LASS.Request=2985 LASS.Response=1691 wait=4033422357d30fa4 use=3fd41df0b69e033a"},
	}
	for _, c := range cases {
		res, err := Run(c.cfg, core.NewFactory(c.opt))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := runFingerprint(res); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
