package resource

import (
	"math/rand"
	"testing"
)

func TestShardMapPartition(t *testing.T) {
	for _, tc := range []struct{ m, g int }{
		{1, 1}, {8, 1}, {8, 4}, {10, 4}, {64, 16}, {7, 7}, {65, 16},
	} {
		sm := NewShardMap(tc.m, tc.g)
		if sm.M() != tc.m || sm.Shards() != tc.g {
			t.Fatalf("m=%d g=%d: shape %d/%d", tc.m, tc.g, sm.M(), sm.Shards())
		}
		// Sizes cover the universe, differ by at most one, and Start is
		// the running sum.
		total, next := 0, ID(0)
		for s := 0; s < tc.g; s++ {
			sz := sm.Size(s)
			if sz != tc.m/tc.g && sz != tc.m/tc.g+1 {
				t.Fatalf("m=%d g=%d: shard %d size %d", tc.m, tc.g, s, sz)
			}
			if sm.Start(s) != next {
				t.Fatalf("m=%d g=%d: shard %d start %d want %d", tc.m, tc.g, s, sm.Start(s), next)
			}
			total += sz
			next += ID(sz)
		}
		if total != tc.m {
			t.Fatalf("m=%d g=%d: sizes sum to %d", tc.m, tc.g, total)
		}
		// Every global id round-trips through (shard, local).
		for r := ID(0); int(r) < tc.m; r++ {
			s := sm.ShardOf(r)
			if got := sm.Start(s) + sm.Local(r); got != r {
				t.Fatalf("m=%d g=%d: id %d -> shard %d local %d -> %d", tc.m, tc.g, r, s, sm.Local(r), got)
			}
			if r >= sm.Start(s)+ID(sm.Size(s)) {
				t.Fatalf("m=%d g=%d: id %d outside its shard %d block", tc.m, tc.g, r, s)
			}
		}
	}
}

func TestShardMapSplit(t *testing.T) {
	sm := NewShardMap(10, 4) // blocks: [0,3) [3,6) [6,8) [8,10)
	rs := FromIDs(10, 0, 2, 3, 8, 9)
	parts := sm.Split(rs)
	if len(parts) != 3 {
		t.Fatalf("parts: %d", len(parts))
	}
	want := []struct {
		shard  int
		locals []ID
	}{
		{0, []ID{0, 2}},
		{1, []ID{0}},
		{3, []ID{0, 1}},
	}
	for i, w := range want {
		p := parts[i]
		if p.Shard != w.shard {
			t.Fatalf("part %d shard %d want %d", i, p.Shard, w.shard)
		}
		if p.Local.Universe() != sm.Size(w.shard) {
			t.Fatalf("part %d universe %d want %d", i, p.Local.Universe(), sm.Size(w.shard))
		}
		got := p.Local.Members()
		if len(got) != len(w.locals) {
			t.Fatalf("part %d members %v want %v", i, got, w.locals)
		}
		for j := range got {
			if got[j] != w.locals[j] {
				t.Fatalf("part %d members %v want %v", i, got, w.locals)
			}
		}
	}
	// Splits are ascending by shard and rebuild the original set.
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		m := 1 + r.Intn(100)
		g := 1 + r.Intn(m)
		smap := NewShardMap(m, g)
		rs := Sample(r, m, r.Intn(m+1))
		back := NewSet(m)
		last := -1
		for _, p := range smap.Split(rs) {
			if p.Shard <= last {
				t.Fatalf("m=%d g=%d: shard order %d after %d", m, g, p.Shard, last)
			}
			last = p.Shard
			if p.Local.Empty() {
				t.Fatalf("m=%d g=%d: empty part for shard %d", m, g, p.Shard)
			}
			p.Local.ForEach(func(l ID) { back.Add(smap.Start(p.Shard) + l) })
		}
		if !back.Equal(rs) {
			t.Fatalf("m=%d g=%d: split/join mismatch %v vs %v", m, g, back, rs)
		}
	}
}
