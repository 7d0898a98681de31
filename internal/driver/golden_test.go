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

// TestRunGoldens pins driver.Run across commits (TestRunDeterministic
// only compares a run with itself): three seeds at the benchmark's
// sim_paper point (N=32, M=80, φ=16, ρ=0.1, loan) and three at N=8,
// M=16, φ=4 without loan. The protocol decides every number here, so a
// change that only moves memory around must leave them bit-identical;
// a change that means to alter the protocol re-records them and says so.
func TestRunGoldens(t *testing.T) {
	paper := func(seed int64) Config {
		return Config{
			Workload: workload.Config{
				N: 32, M: 80, Phi: 16,
				AlphaMin: 5 * sim.Millisecond, AlphaMax: 35 * sim.Millisecond,
				Gamma: 600 * sim.Microsecond, Rho: 0.1, Seed: seed,
			},
			Processing: 600 * sim.Microsecond,
			Warmup:     200 * sim.Millisecond,
			Horizon:    4 * sim.Second,
		}
	}
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
			"grants=698 events=43859 LASS.Request=32108 LASS.Response=10336 wait=4065643308fc1fe2 use=3fc3f8c94abdfb70"},
		{"paper/2", paper(2), core.WithLoan(),
			"grants=685 events=42781 LASS.Request=30911 LASS.Response=10484 wait=4066130eeab0c7ae use=3fc3f2bbf14ed849"},
		{"paper/3", paper(3), core.WithLoan(),
			"grants=672 events=42098 LASS.Request=30584 LASS.Response=10156 wait=40665ae9fa89d567 use=3fc38ed89319c021"},
		{"small/1", small(1), core.WithoutLoan(),
			"grants=480 events=5558 LASS.Request=2938 LASS.Response=1660 wait=4031589914e4689f use=3fd491624e026a29"},
		{"small/2", small(2), core.WithoutLoan(),
			"grants=464 events=5492 LASS.Request=2872 LASS.Response=1692 wait=40324f7f72e22cca use=3fd479e796e92fca"},
		{"small/3", small(3), core.WithoutLoan(),
			"grants=470 events=5599 LASS.Request=2937 LASS.Response=1722 wait=40315dcd2beffdd5 use=3fd590f1f2052324"},
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
