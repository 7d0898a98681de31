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
// Every draw is the draw rand.NewSource of the stream's seed would give.
// A stream is seeded at its first draw, and faster than math/rand seeds
// (fibSource): a run names streams its configuration never draws from —
// a zone coin without zones — and seeding was half of a large run's
// set-up.
func Stream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(&lazySource{seed: seed ^ int64(h.Sum64())})
}

// lazySource is the source of its seed, made when first drawn from.
type lazySource struct {
	seed int64
	src  *fibSource
}

func (l *lazySource) seeded() *fibSource {
	if l.src == nil {
		l.src = new(fibSource)
		l.src.seed(l.seed)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return int64(l.seeded().Uint64() &^ (1 << 63)) }
func (l *lazySource) Uint64() uint64  { return l.seeded().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// fibLen and fibTap are the lags of math/rand's additive lagged
// Fibonacci generator, and mersenne the modulus of its seeding chain.
const (
	fibLen, fibTap = 607, 273
	mersenne       = 1<<31 - 1
	seedMul        = 48271 // the seeding chain's multiplier, A
)

// fibSource is math/rand's generator (rngSource), seeded the same way in
// a third of the time. Its seeding walks the chain x ← A·x mod 2³¹−1 from
// the seed, and the word at i is three consecutive chain values, shifted
// and XORed, XORed with entry i of a fixed table. math/rand steps that
// chain 1 841 times one division at a time; seed runs it as three
// independent lanes (x, A·x, A²·x, each stepped by A³) with a Mersenne
// reduction, which the processor overlaps.
type fibSource struct {
	tap, feed int
	vec       [fibLen]int64
}

// fibCooked is math/rand's seeding table, read back from the standard
// library rather than copied (readCooked).
var fibCooked = readCooked()

// readCooked recovers math/rand's table: 607 draws of a seeded source
// write every state word once, each draw can be undone from the ones
// after it, and the undone state is the table XORed with what fibSource
// derives from the seed alone.
func readCooked() (table [fibLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var f fibSource
	f.tap, f.feed = 0, fibLen-fibTap
	for range fibLen {
		f.step()
		f.vec[f.feed] = int64(src.Uint64())
	}
	for range fibLen { // undo the draws, last first
		f.vec[f.feed] -= f.vec[f.tap]
		f.tap, f.feed = (f.tap+1)%fibLen, (f.feed+1)%fibLen
	}
	var chain fibSource
	chain.fill(seed, &table) // all zero: the chain's words alone
	for i := range table {
		table[i] = f.vec[i] ^ chain.vec[i]
	}
	return table
}

// mulMod returns x·y mod 2³¹−1 for x and y in [1, 2³¹−1). Folding the
// high bits onto the low ones leaves at most 2·(2³¹−1), and the product
// of two such numbers is no multiple of the prime, so one subtraction
// finishes it.
func mulMod(x, y uint64) uint64 {
	t := x * y
	t = t&mersenne + t>>31
	if t >= mersenne {
		t -= mersenne
	}
	return t
}

// powMod returns A^k mod 2³¹−1.
func powMod(k int) uint64 {
	p := uint64(1)
	for range k {
		p = mulMod(p, seedMul)
	}
	return p
}

// a21 moves the chain past math/rand's 20 warm-up steps to the first
// value it uses; a3 steps a lane by three.
var a21, a3 = powMod(21), powMod(3)

// seed is rngSource.Seed: the same state from the same seed.
func (f *fibSource) seed(seed int64) { f.fill(seed, &fibCooked) }

// fill seeds f against table.
func (f *fibSource) fill(seed int64, table *[fibLen]int64) {
	f.tap, f.feed = 0, fibLen-fibTap
	if seed %= mersenne; seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	x := mulMod(uint64(seed), a21)
	y := mulMod(x, seedMul)
	z := mulMod(y, seedMul)
	for i := range f.vec {
		f.vec[i] = int64(x)<<40 ^ int64(y)<<20 ^ int64(z) ^ table[i]
		x, y, z = mulMod(x, a3), mulMod(y, a3), mulMod(z, a3)
	}
}

// step moves tap and feed one word back, as every draw does first.
func (f *fibSource) step() {
	if f.tap--; f.tap < 0 {
		f.tap += fibLen
	}
	if f.feed--; f.feed < 0 {
		f.feed += fibLen
	}
}

// Uint64 is rngSource.Uint64.
func (f *fibSource) Uint64() uint64 {
	f.step()
	x := f.vec[f.feed] + f.vec[f.tap]
	f.vec[f.feed] = x
	return uint64(x)
}

// Exp draws an exponentially distributed duration with the given mean.
// A zero or negative mean yields zero, which callers use to express
// "immediately" (e.g. saturation workloads with no think time).
func Exp(r *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(r.ExpFloat64() * float64(mean))
}
