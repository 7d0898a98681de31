// Package workload generates the synthetic request streams of the
// paper's evaluation (§5.1).
//
// Each site alternates think time and critical sections. A new request
// chooses a size x uniformly from [1, φ], then x distinct resources
// uniformly from the M available. The critical-section duration grows
// with x ("a request requiring a lot of resources is more likely to
// have a longer critical section execution time"): α(x) interpolates
// linearly from AlphaMin to AlphaMax as x goes from 1 to M — the scale
// is global, so a small-φ experiment has short critical sections (see
// Config.Alpha). Think time β is exponential with mean Rho·(ᾱ+γ), which
// realizes the paper's load ratio ρ = β/(α+γ).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"

	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// Config describes one experiment's workload.
type Config struct {
	N   int // number of sites
	M   int // number of resources
	Phi int // maximum request size φ (1..M)

	AlphaMin sim.Time // CS duration at x = 1
	AlphaMax sim.Time // CS duration at x = φ
	Gamma    sim.Time // one-way network latency (for ρ conversion)
	Rho      float64  // load ratio ρ = β/(α+γ); lower = heavier load

	// Zones, when > 1, splits both sites and resources into that many
	// equal contiguous zones and gives requests locality: with
	// probability LocalBias a request draws all its resources from the
	// issuing site's home zone, otherwise uniformly from everywhere.
	// This is the workload of the hierarchical-topology experiment
	// (extension E2): cloud jobs mostly touch local resources.
	Zones     int
	LocalBias float64

	// Skew, when positive, biases resource popularity: resource r is
	// drawn with weight (r+1)^(-Skew), a Zipf-like profile making low
	// identifiers hot spots. Skew 0 is the paper's uniform choice; the
	// hot-spot experiment (extension E5) uses ~1. Mutually exclusive
	// with Zones > 1.
	Skew float64

	Seed int64
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("workload: N = %d, need > 0", c.N)
	case c.M <= 0:
		return fmt.Errorf("workload: M = %d, need > 0", c.M)
	case c.Phi < 1 || c.Phi > c.M:
		return fmt.Errorf("workload: φ = %d outside [1, M=%d]", c.Phi, c.M)
	case c.AlphaMin <= 0 || c.AlphaMax < c.AlphaMin:
		return fmt.Errorf("workload: need 0 < AlphaMin ≤ AlphaMax, got [%v, %v]", c.AlphaMin, c.AlphaMax)
	case c.Gamma < 0:
		return fmt.Errorf("workload: γ = %v, need ≥ 0", c.Gamma)
	case c.Rho < 0:
		return fmt.Errorf("workload: ρ = %v, need ≥ 0", c.Rho)
	case c.Zones < 0 || (c.Zones > 1 && (c.M%c.Zones != 0 || c.N%c.Zones != 0)):
		return fmt.Errorf("workload: %d zones must divide N=%d and M=%d", c.Zones, c.N, c.M)
	case c.LocalBias < 0 || c.LocalBias > 1:
		return fmt.Errorf("workload: LocalBias = %v outside [0,1]", c.LocalBias)
	case c.Skew < 0:
		return fmt.Errorf("workload: Skew = %v, need ≥ 0", c.Skew)
	case c.Skew > 0 && c.Zones > 1:
		return fmt.Errorf("workload: Skew and Zones are mutually exclusive")
	}
	return nil
}

// Alpha is the critical-section duration of a request of size x. The
// scale is global — x = 1 costs AlphaMin, x = M costs AlphaMax — so a
// small-φ experiment has genuinely short critical sections, exactly the
// regime where the paper's global-lock comparison bites ("a request
// requiring a lot of resources is more likely to have a longer critical
// section execution time", §5.1).
func (c Config) Alpha(x int) sim.Time {
	if c.M == 1 {
		return c.AlphaMin
	}
	span := float64(c.AlphaMax - c.AlphaMin)
	return c.AlphaMin + sim.Time(span*float64(x-1)/float64(c.M-1))
}

// MeanAlpha is the expected CS duration over the size distribution:
// x is uniform on 1..φ and α is affine in x, so E[α] = α((1+φ)/2).
func (c Config) MeanAlpha() sim.Time {
	if c.M == 1 {
		return c.AlphaMin
	}
	span := float64(c.AlphaMax - c.AlphaMin)
	meanX := float64(1+c.Phi) / 2
	return c.AlphaMin + sim.Time(span*(meanX-1)/float64(c.M-1))
}

// BetaMean is the mean think time implied by ρ: β = ρ·(ᾱ+γ).
func (c Config) BetaMean() sim.Time {
	return sim.Time(c.Rho * float64(c.MeanAlpha()+c.Gamma))
}

// Request is one generated critical-section request.
type Request struct {
	Resources resource.Set
	Size      int
	CS        sim.Time // critical-section duration α(x)
}

// Generator produces one site's request stream deterministically.
//
// Reproducibility contract: the scenario drawn for a given (Config,
// site) is pinned by TestPinnedDraws and must never shift under
// internal refactors. Sizes, think times and the zone-locality coin
// each consume exactly one draw per request from their own streams;
// resource selection — whose internal draw count depends on the
// sampling algorithm — runs on a per-request substream seeded by one
// draw from sampleSeeds, so optimizing a sampler's internals (e.g. the
// switch to Floyd's algorithm) cannot shift any later draw of the
// scenario.
//
// The substream generator is math/rand/v2's PCG behind one *rand.Rand
// the Generator keeps: starting a substream stores the seed into PCG's
// two state words, O(1) and allocation-free, where seeding a fresh
// math/rand source ran 1 841 steps of its seeding generator over a
// 4.9 kB table to serve the ≤ φ draws of one request. The stream a seed
// yields is fixed by the standard library's PCG-DXSM, not by anything
// written here.
type Generator struct {
	cfg     Config
	zone    int       // home zone of the site (0 when zoning is off)
	weights []float64 // per-resource popularity weights (skewed mode)
	sizes   *rand.Rand
	picks   *rand.Rand // zone-locality coin: one draw per zoned request
	think   *rand.Rand
	// sampleSeeds yields one seed per request; the resource sampler
	// runs on the substream smp restarts from it.
	sampleSeeds *rand.Rand
	smp         *rand.Rand // over sub
	sub         substream
	top         []keyed // sampleSkewed's reservoir, reused across requests
	// set is the set every Next returns, refilled in place; local is a
	// zone-local request's draw over the home block, before the shift.
	set   resource.Set
	local resource.Set
}

// substream is the resource sampler's reseedable source: math/rand's
// Source64 over a PCG.
type substream struct{ pcg randv2.PCG }

func (s *substream) Seed(seed int64) { s.pcg.Seed(uint64(seed), 0) }
func (s *substream) Uint64() uint64  { return s.pcg.Uint64() }
func (s *substream) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// NewGenerator builds the stream for one site. Distinct sites get
// distinct independent streams derived from the run seed; a site has
// exactly one, since it runs one request cycle at a time (the paper's
// hypothesis 4).
func NewGenerator(cfg Config, site int) *Generator {
	key := fmt.Sprintf("%d", site)
	g := &Generator{
		cfg:         cfg,
		sizes:       sim.Stream(cfg.Seed, "wl/size/"+key),
		picks:       sim.Stream(cfg.Seed, "wl/pick/"+key),
		think:       sim.Stream(cfg.Seed, "wl/think/"+key),
		sampleSeeds: sim.Stream(cfg.Seed, "wl/sample/"+key),
	}
	g.smp = rand.New(&g.sub)
	g.set = resource.NewSet(cfg.M)
	if cfg.Zones > 1 {
		g.zone = site / (cfg.N / cfg.Zones)
		g.local = resource.NewSet(cfg.M / cfg.Zones)
	}
	if cfg.Skew > 0 {
		g.weights = make([]float64, cfg.M)
		for r := range g.weights {
			g.weights[r] = math.Pow(float64(r+1), -cfg.Skew)
		}
	}
	return g
}

// sampleSkewed draws x distinct resources with probability proportional
// to the Zipf weights, using the Efraimidis–Spirakis one-pass weighted
// reservoir: each resource gets key u^(1/w); the x largest keys win.
// The draw goes into g.set.
func (g *Generator) sampleSkewed(rng *rand.Rand, x int) {
	top := g.top[:0] // kept sorted ascending by key
	for r := 0; r < g.cfg.M; r++ {
		k := math.Pow(rng.Float64(), 1/g.weights[r])
		switch {
		case len(top) < x:
			// Insert at the end, bubble left into place.
			top = append(top, keyed{k, resource.ID(r)})
			for i := len(top) - 1; i > 0 && top[i].key < top[i-1].key; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
		case k > top[0].key:
			// Evict the minimum, bubble the newcomer right into place.
			top[0] = keyed{k, resource.ID(r)}
			for i := 0; i+1 < len(top) && top[i].key > top[i+1].key; i++ {
				top[i], top[i+1] = top[i+1], top[i]
			}
		}
	}
	g.top = top
	g.set.Clear()
	for _, e := range top {
		g.set.Add(e.r)
	}
}

// keyed is one reservoir entry of sampleSkewed.
type keyed struct {
	key float64
	r   resource.ID
}

// Next draws the site's next request. The resource sampler runs on its
// own per-request substream (see the Generator comment), so its internal
// draw count cannot leak into the rest of the scenario.
//
// The request's set is the generator's own, refilled by every call: it
// stays valid until the site's next Next. The request cycle needs no
// more: a site asks again only after its critical section is released
// (hypothesis 4), and alg.Node.Request keeps the set no longer than
// that. A caller that keeps a set clones it.
func (g *Generator) Next() Request {
	x := 1 + g.sizes.Intn(g.cfg.Phi)
	g.sub.Seed(g.sampleSeeds.Int63())
	smp := g.smp
	switch {
	case g.weights != nil:
		g.sampleSkewed(smp, x)
	case g.cfg.Zones > 1 && g.picks.Float64() < g.cfg.LocalBias:
		// A zone-local request: resources from the home block only.
		block := g.cfg.M / g.cfg.Zones
		if x > block {
			x = block
		}
		g.local.Resample(smp, x)
		g.set.Clear()
		g.local.ForEach(func(r resource.ID) {
			g.set.Add(r + resource.ID(g.zone*block))
		})
	default:
		g.set.Resample(smp, x)
	}
	return Request{Resources: g.set, Size: x, CS: g.cfg.Alpha(x)}
}

// Think draws the pause before the site's next request (the paper's β).
func (g *Generator) Think() sim.Time {
	return sim.Exp(g.think, g.cfg.BetaMean())
}
