package resource

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicMembership(t *testing.T) {
	s := NewSet(80)
	if !s.Empty() || s.Len() != 0 || s.Universe() != 80 {
		t.Fatal("fresh set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(79)
	for _, id := range []ID{0, 63, 64, 79} {
		if !s.Has(id) {
			t.Errorf("missing %d", id)
		}
	}
	if s.Has(1) || s.Has(78) {
		t.Error("spurious member")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	s.Remove(63)
	s.Remove(63) // double remove ok
	if s.Has(63) || s.Len() != 3 {
		t.Error("remove failed")
	}
	if got := s.String(); got != "{0,64,79}" {
		t.Errorf("String = %q", got)
	}
}

func TestBoundsPanic(t *testing.T) {
	s := NewSet(10)
	for _, fn := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Has(10) },
		func() { NewSet(-1) },
		func() { Sample(rand.New(rand.NewSource(1)), 5, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	a, b := NewSet(10), NewSet(20)
	defer func() {
		if recover() == nil {
			t.Error("cross-universe union did not panic")
		}
	}()
	a.UnionWith(b)
}

func TestSetAlgebra(t *testing.T) {
	a := FromIDs(100, 1, 2, 3, 70)
	b := FromIDs(100, 3, 70, 99)
	if got := union(a, b).Members(); !reflect.DeepEqual(got, []ID{1, 2, 3, 70, 99}) {
		t.Errorf("union = %v", got)
	}
	if got := a.Diff(b).Members(); !reflect.DeepEqual(got, []ID{1, 2}) {
		t.Errorf("diff = %v", got)
	}
	if !FromIDs(100, 3).SubsetOf(b) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromIDs(64, 5)
	c := a.Clone()
	c.Add(6)
	if a.Has(6) {
		t.Fatal("mutating clone affected original")
	}
	a.Clear()
	if c.Len() != 2 || !a.Empty() {
		t.Fatal("Clear leaked into clone")
	}
}

// TestCloneIntoUsesBuf: a copy cut from a chunk lives in the chunk's
// words, independent of the original and of the chunk's next piece.
func TestCloneIntoUsesBuf(t *testing.T) {
	a := FromIDs(100, 3, 70)
	chunk := make([]uint64, 2*Words(100))
	c := a.CloneInto(chunk[:0:Words(100)])
	d := FromIDs(100, 4).CloneInto(chunk[Words(100):])
	a.Clear()
	if !c.Equal(FromIDs(100, 3, 70)) || !d.Equal(FromIDs(100, 4)) {
		t.Fatalf("copies %v and %v, want {3,70} and {4}", c, d)
	}
	c.Add(5)
	if chunk[0] != 1<<3|1<<5 {
		t.Fatalf("copy's words are not the chunk's: chunk[0] = %#x", chunk[0])
	}
}

// TestResampleMatchesSample: refilling a set draws what Sample draws from
// the same generator state, whatever the set held before.
func TestResampleMatchesSample(t *testing.T) {
	s := FromIDs(50, 0, 1, 2, 49)
	for k := 0; k <= 50; k += 7 {
		want := Sample(rand.New(rand.NewSource(int64(k))), 50, k)
		s.Resample(rand.New(rand.NewSource(int64(k))), k)
		if !s.Equal(want) {
			t.Fatalf("k=%d: Resample drew %v, Sample %v", k, s, want)
		}
	}
}

func TestForEachAscendingAndMin(t *testing.T) {
	s := FromIDs(200, 150, 3, 64, 65, 199)
	got := s.Members()
	want := []ID{3, 64, 65, 150, 199}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	if s.Min() != 3 {
		t.Fatalf("Min = %d", s.Min())
	}
	if NewSet(10).Min() != -1 {
		t.Fatal("Min of empty should be -1")
	}
}

func TestSample(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for k := 0; k <= 80; k += 8 {
		s := Sample(r, 80, k)
		if s.Len() != k {
			t.Fatalf("Sample size %d gave %d members", k, s.Len())
		}
	}
	// Uniformity smoke check: each id should appear ~k/m of the time.
	counts := make([]int, 20)
	const trials = 4000
	for i := 0; i < trials; i++ {
		Sample(r, 20, 5).ForEach(func(id ID) { counts[id]++ })
	}
	for id, c := range counts {
		f := float64(c) / trials
		if f < 0.18 || f > 0.32 { // expect 0.25
			t.Errorf("id %d frequency %.3f, want ≈0.25", id, f)
		}
	}
}

// mkSet converts quick-generated bytes to a set over a fixed universe.
func mkSet(raw []byte, m int) Set {
	s := NewSet(m)
	for _, b := range raw {
		s.Add(ID(int(b) % m))
	}
	return s
}

// union is a ∪ b through UnionWith, leaving both operands alone.
func union(a, b Set) Set {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

// intersect is a ∩ b as a \ (a \ b).
func intersect(a, b Set) Set { return a.Diff(a.Diff(b)) }

func TestAlgebraProperties(t *testing.T) {
	const m = 130
	type prop struct {
		name string
		fn   any
	}
	props := []prop{
		{"union commutes", func(x, y []byte) bool {
			a, b := mkSet(x, m), mkSet(y, m)
			return union(a, b).Equal(union(b, a))
		}},
		{"intersection distributes over union", func(x, y, z []byte) bool {
			a, b, c := mkSet(x, m), mkSet(y, m), mkSet(z, m)
			return intersect(a, union(b, c)).Equal(union(intersect(a, b), intersect(a, c)))
		}},
		{"diff disjoint from subtrahend", func(x, y []byte) bool {
			a, b := mkSet(x, m), mkSet(y, m)
			d := a.Diff(b)
			return d.Diff(b).Equal(d)
		}},
		{"inclusion-exclusion cardinality", func(x, y []byte) bool {
			a, b := mkSet(x, m), mkSet(y, m)
			return union(a, b).Len() == a.Len()+b.Len()-intersect(a, b).Len()
		}},
		{"subset iff diff empty", func(x, y []byte) bool {
			a, b := mkSet(x, m), mkSet(y, m)
			return a.SubsetOf(b) == a.Diff(b).Empty()
		}},
		{"members sorted strictly ascending", func(x []byte) bool {
			ms := mkSet(x, m).Members()
			for i := 1; i < len(ms); i++ {
				if ms[i-1] >= ms[i] {
					return false
				}
			}
			return true
		}},
	}
	for _, p := range props {
		p := p
		t.Run(p.name, func(t *testing.T) {
			if err := quick.Check(p.fn, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

func BenchmarkSubsetOf(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := Sample(r, 80, 40)
	o := Sample(r, 80, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.SubsetOf(o)
	}
}

func BenchmarkSample(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Sample(r, 80, 40)
	}
}
