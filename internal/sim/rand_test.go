package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestFibSourceMatchesMathRand: fibSource is rand.NewSource's generator
// seeded another way, so from every seed it must give the same draws.
// The edge seeds are those Seed folds — zero (replaced by 89482311),
// ±(2³¹−1) (which reduce to zero), 89482311 itself, negative seeds and
// seeds above 2³¹ — and 2 000 random ones follow.
func TestFibSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, mersenne, -mersenne, mersenne - 1, mersenne + 1, 2 * mersenne,
		89482311, -89482311, 1 << 31, 1<<31 + 5, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(20))
	for range 2000 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	draws := 2000
	if testing.Short() {
		seeds, draws = seeds[:200], 700
	}
	var f fibSource
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		f.seed(seed)
		for i := range draws {
			if got, w := f.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d, draw %d: %#x, math/rand gives %#x", seed, i, got, w)
			}
		}
	}
}

// BenchmarkStreamSeed is one stream's seeding: what its first draw costs.
func BenchmarkStreamSeed(b *testing.B) {
	for i := range b.N {
		Stream(int64(i), "wl/size/0").Int63()
	}
}

// BenchmarkMathRandSeed is the same with math/rand's own seeding.
func BenchmarkMathRandSeed(b *testing.B) {
	for i := range b.N {
		rand.NewSource(int64(i)).Int63()
	}
}
