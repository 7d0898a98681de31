package bouabdallah

import (
	"testing"
	"testing/quick"

	"mralloc/internal/driver"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

func cfg(seed int64) driver.Config {
	return driver.Config{
		Workload: workload.Config{
			N: 8, M: 16, Phi: 6,
			AlphaMin: 5 * sim.Millisecond,
			AlphaMax: 35 * sim.Millisecond,
			Gamma:    600 * sim.Microsecond,
			Rho:      1,
			Seed:     seed,
		},
		Warmup:  50 * sim.Millisecond,
		Horizon: 2 * sim.Second,
		Drain:   true,
	}
}

// TestSafetyAndLiveness exercises the full protocol under the invariant
// monitor (panics on violation) with drain-mode liveness checking.
func TestSafetyAndLiveness(t *testing.T) {
	res, err := driver.Run(cfg(1), NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants < 50 {
		t.Fatalf("only %d grants", res.Grants)
	}
	if res.Ungranted != 0 {
		t.Fatalf("%d requests starved", res.Ungranted)
	}
}

// TestManySeeds explores interleavings; the owed-token case (a held
// token claimed by an INQUIRE still in flight) in particular only shows
// up under specific timings, so breadth matters.
func TestManySeeds(t *testing.T) {
	prop := func(seed int64) bool {
		c := cfg(seed)
		c.Horizon = 500 * sim.Millisecond
		res, err := driver.Run(c, NewFactory())
		return err == nil && res.Ungranted == 0 && res.Grants > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHighContentionSmallPool squeezes many nodes onto few resources,
// maximizing token reuse, INQUIRE chains, and the yield inversion.
func TestHighContentionSmallPool(t *testing.T) {
	c := cfg(2)
	c.Workload.M = 4
	c.Workload.Phi = 3
	c.Workload.Rho = 0.2
	res, err := driver.Run(c, NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ungranted != 0 || res.Grants == 0 {
		t.Fatalf("grants=%d ungranted=%d", res.Grants, res.Ungranted)
	}
}

// TestRepeatedResourceReuse: φ = M with few resources forces every
// request to conflict with every other, so tokens cycle through the
// whole population — the static-scheduling worst case.
func TestRepeatedResourceReuse(t *testing.T) {
	c := cfg(3)
	c.Workload.M = 3
	c.Workload.Phi = 3
	res, err := driver.Run(c, NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ungranted != 0 {
		t.Fatalf("%d requests starved", res.Ungranted)
	}
}

// TestMessageKindsPresent checks every wire kind shows up in stats: the
// control-token circulation, the INQUIRE chains, and token transfers.
func TestMessageKindsPresent(t *testing.T) {
	res, err := driver.Run(cfg(4), NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"BL.CTRequest", "BL.CTToken", "BL.Inquire", "BL.ResToken"} {
		if res.Messages.ByKind[k] == 0 {
			t.Errorf("no %s messages observed: %v", k, res.Messages)
		}
	}
}

// TestEveryRequestPaysTheControlToken verifies the defining cost of the
// algorithm: even fully disjoint requests circulate the control token,
// so CT traffic grows with the number of grants.
func TestEveryRequestPaysTheControlToken(t *testing.T) {
	c := cfg(5)
	c.Workload.Phi = 1 // minimal conflicts
	res, err := driver.Run(c, NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	ctMsgs := res.Messages.ByKind["BL.CTRequest"] + res.Messages.ByKind["BL.CTToken"]
	if ctMsgs < int64(res.Grants) {
		t.Fatalf("CT messages %d < grants %d — control token not serializing", ctMsgs, res.Grants)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := driver.Run(cfg(6), NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.Run(cfg(6), NewFactory())
	if err != nil {
		t.Fatal(err)
	}
	if a.Grants != b.Grants || a.Messages.Total != b.Messages.Total || a.UseRate != b.UseRate {
		t.Fatal("same seed diverged")
	}
}

func TestControlTokenInitialState(t *testing.T) {
	ct := NewControlToken(5)
	for r := 0; r < 5; r++ {
		if !ct.HasToken[r] {
			t.Fatalf("resource %d should start in the control token", r)
		}
	}
}
