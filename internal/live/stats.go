package live

import (
	"slices"
	"sync"
	"sync/atomic"

	"mralloc/internal/network"
)

// kindStats is a cluster's per-kind message counter. Counting is on the
// path of every protocol message, so it takes no lock and hashes
// nothing: each kind owns an atomic counter, found by scanning the
// published handful of kinds with a string compare. Only the first
// message of a kind takes the lock, to publish a longer copy.
type kindStats struct {
	kinds atomic.Pointer[[]kindCount]
	mu    sync.Mutex // serialises publication
}

type kindCount struct {
	kind string
	n    *atomic.Int64
}

func (s *kindStats) count(m network.Message) { s.counter(m.Kind()).Add(1) }

func (s *kindStats) counter(kind string) *atomic.Int64 {
	if n := s.find(kind); n != nil {
		return n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.find(kind); n != nil {
		return n
	}
	n := new(atomic.Int64)
	// Clipped, so the append copies: readers keep scanning the old array.
	grown := append(slices.Clip(s.load()), kindCount{kind, n})
	s.kinds.Store(&grown)
	return n
}

func (s *kindStats) load() []kindCount {
	if p := s.kinds.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *kindStats) find(kind string) *atomic.Int64 {
	for _, k := range s.load() {
		if k.kind == kind {
			return k.n
		}
	}
	return nil
}

func (s *kindStats) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, k := range s.load() {
		out[k.kind] = k.n.Load()
	}
	return out
}
