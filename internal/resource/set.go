// Package resource defines resource identifiers and dense bitset-backed
// resource sets. Requests in the multi-resource allocation problem are
// subsets of a fixed universe {0..M-1}; the hot paths of every algorithm
// (subset tests, unions, iteration in ascending identifier order) are all
// O(M/64) word operations here.
package resource

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// ID names one resource in the universe. Identifiers are dense: a system
// with M resources uses exactly 0..M-1.
type ID int

// Set is a mutable subset of a resource universe. The zero value is an
// empty set over an empty universe; use NewSet to size one for a system.
// Methods with pointer receivers mutate; value-receiver methods do not.
type Set struct {
	words []uint64
	m     int
}

// NewSet returns an empty set over the universe {0..m-1}.
func NewSet(m int) Set {
	if m < 0 {
		panic("resource: negative universe size")
	}
	return Set{words: make([]uint64, Words(m)), m: m}
}

// FromIDs builds a set over {0..m-1} holding exactly the given ids.
func FromIDs(m int, ids ...ID) Set {
	s := NewSet(m)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Universe reports the size M of the universe the set ranges over.
func (s Set) Universe() int { return s.m }

func (s Set) check(id ID) {
	if id < 0 || int(id) >= s.m {
		panic(fmt.Sprintf("resource: id %d outside universe [0,%d)", id, s.m))
	}
}

// Add inserts id.
func (s *Set) Add(id ID) {
	s.check(id)
	s.words[id/64] |= 1 << (uint(id) % 64)
}

// Remove deletes id (a no-op when absent).
func (s *Set) Remove(id ID) {
	s.check(id)
	s.words[id/64] &^= 1 << (uint(id) % 64)
}

// Has reports whether id is a member.
func (s Set) Has(id ID) bool {
	s.check(id)
	return s.words[id/64]&(1<<(uint(id)%64)) != 0
}

// Len reports the number of members.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), m: s.m}
	copy(c.words, s.words)
	return c
}

// Words is the number of 64-bit words a set over {0..m-1} is stored
// in: the room CloneInto needs.
func Words(m int) int { return (m + 63) / 64 }

// CloneInto returns an independent copy of s stored in buf, for a
// caller that cuts many sets from one chunk of memory. buf must have
// room for Words(s.Universe()) words; its contents are overwritten.
func (s Set) CloneInto(buf []uint64) Set {
	c := Set{words: buf[:len(s.words)], m: s.m}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the members of o without allocating,
// reusing s's storage. The universes must match.
func (s *Set) CopyFrom(o Set) {
	s.sameUniverse(o)
	copy(s.words, o.words)
}

// Clear removes every member, keeping the universe.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

func (s Set) sameUniverse(o Set) {
	if s.m != o.m {
		panic("resource: sets over different universes")
	}
}

// UnionWith adds every member of o.
func (s *Set) UnionWith(o Set) {
	s.sameUniverse(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// DiffWith removes every member of o.
func (s *Set) DiffWith(o Set) {
	s.sameUniverse(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Diff returns s \ o without mutating either.
func (s Set) Diff(o Set) Set {
	c := s.Clone()
	c.DiffWith(o)
	return c
}

// SubsetOf reports whether every member of s is in o.
func (s Set) SubsetOf(o Set) bool {
	s.sameUniverse(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o hold exactly the same members.
func (s Set) Equal(o Set) bool {
	s.sameUniverse(o)
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in ascending identifier order. The
// incremental algorithm's total resource order is exactly this order.
func (s Set) ForEach(fn func(ID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(ID(wi*64 + b))
			w &= w - 1
		}
	}
}

// Members returns the members in ascending order.
func (s Set) Members() []ID {
	return s.AppendMembers(make([]ID, 0, s.Len()))
}

// AppendMembers writes the members in ascending order into buf
// (truncated first) and returns it, growing it only when the previous
// capacity is too small. It is the allocation-free Members for hot
// paths that iterate a snapshot while mutating the set.
func (s Set) AppendMembers(buf []ID) []ID {
	buf = buf[:0]
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, ID(wi*64+b))
			w &= w - 1
		}
	}
	return buf
}

// Min returns the smallest member, or -1 when empty.
func (s Set) Min() ID {
	for wi, w := range s.words {
		if w != 0 {
			return ID(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// String renders like "{1,5,7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id ID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	})
	b.WriteByte('}')
	return b.String()
}

// Sample returns a uniformly random subset of size k of {0..m-1} using
// Floyd's algorithm: each k-subset is equally likely, k draws, and no
// O(m) permutation scratch. It is the request generator for every
// workload in the evaluation.
func Sample(r *rand.Rand, m, k int) Set {
	s := NewSet(m)
	s.Resample(r, k)
	return s
}

// Resample replaces s's members with a uniformly random subset of size
// k of its universe, drawn exactly as Sample draws it: the same
// generator state yields the same set, and s's storage is reused.
func (s *Set) Resample(r *rand.Rand, k int) {
	m := s.m
	if k < 0 || k > m {
		panic(fmt.Sprintf("resource: cannot sample %d of %d", k, m))
	}
	s.Clear()
	for j := m - k; j < m; j++ {
		t := ID(r.Intn(j + 1))
		if s.Has(t) {
			s.Add(ID(j))
		} else {
			s.Add(t)
		}
	}
}
