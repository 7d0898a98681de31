package workload

import (
	"testing"
	"testing/quick"

	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

func base() Config {
	return Config{
		N: 32, M: 80, Phi: 16,
		AlphaMin: 5 * sim.Millisecond,
		AlphaMax: 35 * sim.Millisecond,
		Gamma:    600 * sim.Microsecond,
		Rho:      5,
		Seed:     1,
	}
}

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.Phi = 0 },
		func(c *Config) { c.Phi = c.M + 1 },
		func(c *Config) { c.AlphaMin = 0 },
		func(c *Config) { c.AlphaMax = c.AlphaMin - 1 },
		func(c *Config) { c.Rho = -1 },
		func(c *Config) { c.Gamma = -1 },
	}
	for i, mut := range bad {
		c := base()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAlphaInterpolation(t *testing.T) {
	c := base()
	if got := c.Alpha(1); got != 5*sim.Millisecond {
		t.Errorf("Alpha(1) = %v", got)
	}
	// The scale is global in x: only an M-sized request costs AlphaMax.
	if got := c.Alpha(c.M); got != 35*sim.Millisecond {
		t.Errorf("Alpha(M) = %v", got)
	}
	if c.Alpha(4) >= c.Alpha(12) {
		t.Error("Alpha not increasing in x")
	}
	// φ does not change the per-x duration, only which x occur.
	c2 := base()
	c2.Phi = 4
	if c2.Alpha(3) != c.Alpha(3) {
		t.Error("Alpha must not depend on φ")
	}
	if got := (Config{M: 1, Phi: 1, AlphaMin: 7 * sim.Millisecond, AlphaMax: 9 * sim.Millisecond}).Alpha(1); got != 7*sim.Millisecond {
		t.Errorf("Alpha at M=1 = %v, want AlphaMin", got)
	}
}

func TestBetaFromRho(t *testing.T) {
	c := base()
	// ᾱ = 5ms + 30ms·(8.5-1)/79, γ = 0.6ms, ρ = 5.
	span := 30 * float64(sim.Millisecond)
	wantAlpha := 5*sim.Millisecond + sim.Time(span*7.5/79)
	if got := c.MeanAlpha(); got != wantAlpha {
		t.Errorf("MeanAlpha = %v, want %v", got, wantAlpha)
	}
	want := sim.Time(5 * float64(wantAlpha+600*sim.Microsecond))
	if got := c.BetaMean(); got != want {
		t.Errorf("BetaMean = %v, want %v", got, want)
	}
	c.Rho = 0
	if c.BetaMean() != 0 {
		t.Error("ρ=0 should mean zero think time (saturation)")
	}
}

func TestGeneratorBoundsAndConsistency(t *testing.T) {
	c := base()
	g := NewGenerator(c, 3)
	for i := 0; i < 500; i++ {
		r := g.Next()
		if r.Size < 1 || r.Size > c.Phi {
			t.Fatalf("size %d outside [1,%d]", r.Size, c.Phi)
		}
		if r.Resources.Len() != r.Size {
			t.Fatalf("set size %d != declared size %d", r.Resources.Len(), r.Size)
		}
		if r.CS != c.Alpha(r.Size) {
			t.Fatalf("CS %v != Alpha(%d) = %v", r.CS, r.Size, c.Alpha(r.Size))
		}
	}
}

func TestGeneratorDeterminismAndSiteIndependence(t *testing.T) {
	c := base()
	a1, a2 := NewGenerator(c, 0), NewGenerator(c, 0)
	b := NewGenerator(c, 1)
	sameAB := 0
	for i := 0; i < 50; i++ {
		r1, r2, rb := a1.Next(), a2.Next(), b.Next()
		if !r1.Resources.Equal(r2.Resources) || r1.Size != r2.Size {
			t.Fatal("same site not deterministic")
		}
		if r1.Resources.Equal(rb.Resources) {
			sameAB++
		}
	}
	if sameAB > 5 {
		t.Errorf("sites 0 and 1 drew the same request %d/50 times", sameAB)
	}
}

func TestSizeDistributionUniform(t *testing.T) {
	c := base()
	c.Phi = 4
	g := NewGenerator(c, 9)
	counts := make([]int, c.Phi+1)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[g.Next().Size]++
	}
	for x := 1; x <= c.Phi; x++ {
		f := float64(counts[x]) / n
		if f < 0.22 || f > 0.28 {
			t.Errorf("P(x=%d) = %.3f, want ≈0.25", x, f)
		}
	}
}

func TestThinkMean(t *testing.T) {
	c := base()
	g := NewGenerator(c, 5)
	var sum sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Think()
	}
	ratio := float64(sum) / float64(n) / float64(c.BetaMean())
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("think mean ratio = %.3f, want ≈1", ratio)
	}
}

// Property: for any valid (φ, seed), generated requests always fit the
// universe and respect declared size.
func TestGeneratorProperty(t *testing.T) {
	prop := func(phiRaw uint8, seed int64, site uint8) bool {
		c := base()
		c.Phi = 1 + int(phiRaw)%c.M
		c.Seed = seed
		g := NewGenerator(c, int(site))
		for i := 0; i < 20; i++ {
			r := g.Next()
			if r.Size < 1 || r.Size > c.Phi || r.Resources.Len() != r.Size {
				return false
			}
			if r.CS < c.AlphaMin || r.CS > c.AlphaMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZonedWorkloadValidation(t *testing.T) {
	c := base()
	c.Zones = 2
	c.LocalBias = 0.9
	if err := c.Validate(); err != nil {
		t.Fatalf("valid zoned config rejected: %v", err)
	}
	c.Zones = 3 // does not divide N=32
	if err := c.Validate(); err == nil {
		t.Fatal("indivisible zones accepted")
	}
	c = base()
	c.Zones = 2
	c.LocalBias = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("bias > 1 accepted")
	}
}

func TestZonedRequestsStayLocal(t *testing.T) {
	c := base()
	c.Zones = 2
	c.LocalBias = 1 // every request fully local
	for _, site := range []int{0, 15, 16, 31} {
		g := NewGenerator(c, site)
		zone := site / (c.N / c.Zones)
		lo := zone * (c.M / c.Zones)
		hi := lo + c.M/c.Zones
		for i := 0; i < 200; i++ {
			r := g.Next()
			for _, id := range r.Resources.Members() {
				if int(id) < lo || int(id) >= hi {
					t.Fatalf("site %d (zone %d) drew resource %d outside [%d,%d)", site, zone, id, lo, hi)
				}
			}
			if r.Size > c.M/c.Zones {
				t.Fatalf("size %d exceeds zone block", r.Size)
			}
		}
	}
}

func TestZonedBiasMixes(t *testing.T) {
	c := base()
	c.Zones = 2
	c.LocalBias = 0.5
	c.Phi = 8
	g := NewGenerator(c, 0) // zone 0: resources 0..39
	crossing := 0
	const n = 2000
	for i := 0; i < n; i++ {
		r := g.Next()
		for _, id := range r.Resources.Members() {
			if int(id) >= 40 {
				crossing++
				break
			}
		}
	}
	// Half the requests are global draws; most of those with x̄=4.5
	// cross the boundary. Expect a clearly mixed stream.
	if crossing < n/8 || crossing > n*7/8 {
		t.Fatalf("crossing requests = %d/%d, expected a mixed stream", crossing, n)
	}
}

func TestUnzonedIgnoresBiasFields(t *testing.T) {
	a := NewGenerator(base(), 3)
	czoned := base()
	czoned.Zones = 1 // zoning off
	czoned.LocalBias = 0.9
	b := NewGenerator(czoned, 3)
	for i := 0; i < 50; i++ {
		ra, rb := a.Next(), b.Next()
		if !ra.Resources.Equal(rb.Resources) {
			t.Fatal("Zones=1 must behave exactly like Zones=0")
		}
	}
}

func TestSkewValidation(t *testing.T) {
	c := base()
	c.Skew = 1
	if err := c.Validate(); err != nil {
		t.Fatalf("valid skewed config rejected: %v", err)
	}
	c.Skew = -0.5
	if err := c.Validate(); err == nil {
		t.Fatal("negative skew accepted")
	}
	c = base()
	c.Skew = 1
	c.Zones = 2
	if err := c.Validate(); err == nil {
		t.Fatal("skew + zones accepted")
	}
}

// TestSkewedSamplingShape: with Zipf skew, low resource ids must be
// drawn far more often than high ones, sizes stay exact, and members
// stay distinct (the Set dedups by construction; sizes prove it).
func TestSkewedSamplingShape(t *testing.T) {
	c := base()
	c.Skew = 1.2
	c.Phi = 8
	g := NewGenerator(c, 4)
	counts := make([]int, c.M)
	const n = 4000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Resources.Len() != r.Size || r.Size < 1 || r.Size > c.Phi {
			t.Fatalf("bad request: size=%d len=%d", r.Size, r.Resources.Len())
		}
		r.Resources.ForEach(func(id resource.ID) { counts[id]++ })
	}
	head := counts[0] + counts[1] + counts[2] + counts[3]
	tail := counts[c.M-4] + counts[c.M-3] + counts[c.M-2] + counts[c.M-1]
	if head < 4*tail {
		t.Fatalf("skew invisible: head 4 = %d, tail 4 = %d", head, tail)
	}
}

// TestSkewZeroIsUniform: Skew = 0 must take the exact uniform path.
func TestSkewZeroIsUniform(t *testing.T) {
	a := NewGenerator(base(), 2)
	cs := base()
	cs.Skew = 0
	b := NewGenerator(cs, 2)
	for i := 0; i < 30; i++ {
		if !a.Next().Resources.Equal(b.Next().Resources) {
			t.Fatal("Skew=0 changed the uniform stream")
		}
	}
}

// TestSkewedFullWidth: requesting x = M under skew must return every
// resource exactly once.
func TestSkewedFullWidth(t *testing.T) {
	c := base()
	c.M = 12
	c.Phi = 12
	c.Skew = 1
	g := NewGenerator(c, 0)
	for i := 0; i < 50; i++ {
		r := g.Next()
		if r.Resources.Len() != r.Size {
			t.Fatalf("size %d set %d", r.Size, r.Resources.Len())
		}
	}
}
