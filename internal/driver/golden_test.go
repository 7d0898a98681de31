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
			"grants=702 events=22167 LASS.Request=11219 LASS.Response=9524 wait=406580fa60684984 use=3fc41f32890fb5ea"},
		{"paper/2", paper(2), core.WithLoan(),
			"grants=664 events=21205 LASS.Request=10680 LASS.Response=9190 wait=4066a76e8f567e41 use=3fc3c82759612b07"},
		{"paper/3", paper(3), core.WithLoan(),
			"grants=722 events=22866 LASS.Request=11557 LASS.Response=9843 wait=4064af6fc8e562cb use=3fc4a5e952bf6a8f"},
		{"small/1", small(1), core.WithoutLoan(),
			"grants=480 events=4763 LASS.Request=2150 LASS.Response=1653 wait=40311bee1108e0b8 use=3fd516cf7fc1a328"},
		{"small/2", small(2), core.WithoutLoan(),
			"grants=458 events=4676 LASS.Request=2136 LASS.Response=1624 wait=403309379dcb2aaa use=3fd41e6fc183ee62"},
		{"small/3", small(3), core.WithoutLoan(),
			"grants=485 events=5043 LASS.Request=2318 LASS.Response=1755 wait=40310b96ae3b9165 use=3fd5b6940eff8291"},
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
