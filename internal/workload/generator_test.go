package workload

import (
	"testing"

	"mralloc/internal/resource"
)

// TestNextUniform checks the uniform draw at the paper's point across
// every site of a run: 32 sites × 6 000 requests. Each resource must be
// named within ±3 % of its expectation (σ is 0.7 %), and the counts of
// the 3 160 resource pairs must fit their expectation by χ². The pair
// statistic is what a weakly mixed substream would fail first: related
// seeds giving related first draws show up as pairs that co-occur too
// often, while every single resource still looks uniform.
func TestNextUniform(t *testing.T) {
	c := base()
	const perSite = 6000
	single := make([]float64, c.M)
	pair := make([]float64, c.M*c.M)
	var picks, pairs float64 // expected totals, from the sizes drawn
	var ids []resource.ID
	for site := 0; site < c.N; site++ {
		g := NewGenerator(c, site)
		for i := 0; i < perSite; i++ {
			r := g.Next()
			ids = r.Resources.AppendMembers(ids)
			picks += float64(len(ids))
			pairs += float64(len(ids) * (len(ids) - 1) / 2)
			for i, a := range ids {
				single[a]++
				for _, b := range ids[i+1:] {
					pair[int(a)*c.M+int(b)]++
				}
			}
		}
	}
	want := picks / float64(c.M)
	for r, got := range single {
		if got < 0.97*want || got > 1.03*want {
			t.Errorf("resource %d named %.0f times, want %.0f ± 3%%", r, got, want)
		}
	}
	cells := c.M * (c.M - 1) / 2
	want = pairs / float64(cells)
	chi2 := 0.0
	for a := 0; a < c.M; a++ {
		for b := a + 1; b < c.M; b++ {
			d := pair[a*c.M+b] - want
			chi2 += d * d / want
		}
	}
	// χ² with cells−1 degrees of freedom has mean ≈ cells and standard
	// deviation √(2·cells) ≈ 80: five of them is a generous bound for a
	// fixed seed, and far below what correlated draws produce.
	if limit := float64(cells) + 5*80; chi2 > limit {
		t.Errorf("pair χ² = %.0f over %d pairs (expected %.0f each), want ≤ %.0f", chi2, cells, want, limit)
	}
	t.Logf("per-resource expectation %.0f, pair expectation %.0f, pair χ² %.0f / %d", picks/float64(c.M), want, chi2, cells)
}

// nextConfigs are the three sampling paths of Next.
func nextConfigs() []struct {
	name string
	cfg  Config
	site int
} {
	zoned := base()
	zoned.Zones, zoned.LocalBias = 2, 0.5
	skewed := base()
	skewed.Skew = 1.2
	return []struct {
		name string
		cfg  Config
		site int
	}{{"uniform", base(), 0}, {"zoned", zoned, 17}, {"skewed", skewed, 3}}
}

// TestNextAllocs pins what a request costs the allocator: nothing, on
// every sampling path. Starting the substream allocates nothing, and the
// returned set, a zone-local request's block draw and the skewed
// reservoir are the generator's own.
func TestNextAllocs(t *testing.T) {
	for _, c := range nextConfigs() {
		g := NewGenerator(c.cfg, c.site)
		g.Next() // the skewed reservoir grows once
		if got := testing.AllocsPerRun(200, func() { g.Next() }); got != 0 {
			t.Errorf("%s: %.2f allocs per Next, want 0", c.name, got)
		}
	}
}

// TestNextRefillsOneSet: every request of a generator comes in the same
// set, refilled in place, and a clone taken before the next request
// keeps what was drawn.
func TestNextRefillsOneSet(t *testing.T) {
	for _, c := range nextConfigs() {
		g := NewGenerator(c.cfg, c.site)
		first := g.Next()
		kept := first.Resources.Clone()
		second := g.Next()
		for second.Resources.Equal(kept) {
			second = g.Next()
		}
		if !first.Resources.Equal(second.Resources) {
			t.Errorf("%s: a request came in a set of its own", c.name)
		}
		if kept.Len() != first.Size {
			t.Errorf("%s: the clone holds %v, not the %d resources drawn", c.name, kept, first.Size)
		}
	}
}

func BenchmarkNext(b *testing.B) {
	for _, c := range nextConfigs() {
		b.Run(c.name, func(b *testing.B) {
			g := NewGenerator(c.cfg, c.site)
			b.ReportAllocs()
			for b.Loop() {
				g.Next()
			}
		})
	}
}
