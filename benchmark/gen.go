package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
)

// reqGen is one session's request stream. Every session of a workload
// draws from its own substream of the run seed, so adding or removing a
// session never shifts another session's requests, and the stream a
// session sees does not depend on how fast the program answered.
type reqGen struct {
	rng        *rand.Rand
	m, phi     int
	shards     int
	crossShare float64

	total, cross int64 // generator counts (live.cross_share is their ratio)
	lastCross    bool  // whether the last request drawn spans two shards
}

// substreamSeed mixes the run seed with the workload name, a stream
// label and an index (splitmix64 finalizer over an FNV hash).
func substreamSeed(seed int64, workload, label string, index int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(index))
	h.Write(b[:])
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(label))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func newReqGen(w *workloadSpec, seed int64, session int) *reqGen {
	return &reqGen{
		rng:        rand.New(rand.NewSource(substreamSeed(seed, w.name, "requests", session))),
		m:          w.resources,
		phi:        w.phi,
		shards:     w.shards,
		crossShare: w.crossShare,
	}
}

// shardRange is the generator's view of the contiguous shard layout;
// deploy.go checks it against the program's own map at set-up.
func shardRange(m, g, s int) (lo, size int) {
	base, extra := m/g, m%g
	lo = s*base + min(s, extra)
	size = base
	if s < extra {
		size++
	}
	return lo, size
}

// next draws one request: a sorted set of distinct resource ids. On a
// flat workload the size is uniform in [1, phi] and the resources are
// uniform over M. On a sharded one a crossShare of the requests take
// one resource in each of two distinct shards and the rest stay inside
// one shard (size uniform in [1, phi]).
func (g *reqGen) next() []int {
	g.total++
	g.lastCross = false
	if g.shards > 1 {
		if g.rng.Float64() < g.crossShare {
			g.cross++
			g.lastCross = true
			a := g.rng.Intn(g.shards)
			b := (a + 1 + g.rng.Intn(g.shards-1)) % g.shards
			loA, szA := shardRange(g.m, g.shards, a)
			loB, szB := shardRange(g.m, g.shards, b)
			out := []int{loA + g.rng.Intn(szA), loB + g.rng.Intn(szB)}
			sort.Ints(out)
			return out
		}
		lo, size := shardRange(g.m, g.shards, g.rng.Intn(g.shards))
		return g.distinct(lo, size, 1+g.rng.Intn(min(g.phi, size)))
	}
	return g.distinct(0, g.m, 1+g.rng.Intn(g.phi))
}

// distinct draws k distinct ids uniformly from [lo, lo+size), sorted.
func (g *reqGen) distinct(lo, size, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		r := lo + g.rng.Intn(size)
		dup := false
		for _, x := range out {
			if x == r {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// streamHashPrefix is how many requests of each substream the stream
// hash covers: enough to tell two seeds apart, independent of how many
// requests a run had time to issue.
const streamHashPrefix = 256

// streamHash fingerprints the request streams a (workload, seed) pair
// generates, so two result files can be checked to have measured the
// same inputs.
func streamHash(w *workloadSpec, seed int64) uint64 {
	h := fnv.New64a()
	streams := w.sessions
	if w.open() {
		streams = 1
	}
	var b [8]byte
	for s := 0; s < streams; s++ {
		g := newReqGen(w, seed, s)
		for i := 0; i < streamHashPrefix; i++ {
			for _, r := range g.next() {
				binary.LittleEndian.PutUint64(b[:], uint64(r))
				h.Write(b[:])
			}
			h.Write([]byte{0xff})
		}
	}
	return h.Sum64()
}
