package sim

import (
	"hash/fnv"
	"math/rand"
)

// Stream derives an independent, reproducible random stream from a run
// seed and a textual label ("node/7/think", ...). Labeled
// derivation keeps sub-streams stable when unrelated consumers are added
// or removed, which keeps recorded experiment outputs comparable across
// code revisions.
//
// A stream is seeded at its first draw: seeding a math/rand source runs
// its seeding generator over a 4.9 kB table (≈ 11 µs), and a run names
// streams its configuration never draws from — a zone coin without
// zones.
func Stream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(&lazySource{seed: seed ^ int64(h.Sum64())})
}

// lazySource is the math/rand source of its seed, made when first drawn
// from; every draw is the draw rand.NewSource(seed) would have given.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) seeded() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.seeded().Int63() }
func (l *lazySource) Uint64() uint64  { return l.seeded().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// Exp draws an exponentially distributed duration with the given mean.
// A zero or negative mean yields zero, which callers use to express
// "immediately" (e.g. saturation workloads with no think time).
func Exp(r *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(r.ExpFloat64() * float64(mean))
}
