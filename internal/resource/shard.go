package resource

import "fmt"

// ShardMap partitions the flat universe {0..M-1} into G contiguous
// shards, each an independent token universe with its own dense local
// identifier space {0..size-1}. Shards are blocks, not stripes: shard s
// owns [Start(s), Start(s)+Size(s)), so a resource range maps to few
// shards and the global order of resources equals (shard, local) order —
// the property ordered cross-shard locking relies on.
//
// When G does not divide M the first M%G shards are one resource larger,
// so sizes differ by at most one. The zero value is unusable; build with
// NewShardMap.
type ShardMap struct {
	m, g int
	q    int // base shard size M/G
	rem  int // shards [0,rem) hold q+1 resources
}

// NewShardMap builds the partition of m resources into g shards.
// Requires 1 <= g <= m: a shard with an empty universe would have no
// tokens to circulate.
func NewShardMap(m, g int) ShardMap {
	if m < 1 || g < 1 || g > m {
		panic(fmt.Sprintf("resource: cannot shard %d resources into %d shards", m, g))
	}
	return ShardMap{m: m, g: g, q: m / g, rem: m % g}
}

// M reports the global universe size.
func (sm ShardMap) M() int { return sm.m }

// Shards reports the shard count G.
func (sm ShardMap) Shards() int { return sm.g }

// Size reports the local universe size of shard s.
func (sm ShardMap) Size(s int) int {
	sm.checkShard(s)
	if s < sm.rem {
		return sm.q + 1
	}
	return sm.q
}

// Start reports the first global identifier owned by shard s.
func (sm ShardMap) Start(s int) ID {
	sm.checkShard(s)
	if s < sm.rem {
		return ID(s * (sm.q + 1))
	}
	return ID(sm.rem*(sm.q+1) + (s-sm.rem)*sm.q)
}

// ShardOf reports which shard owns global resource r.
func (sm ShardMap) ShardOf(r ID) int {
	sm.checkID(r)
	wide := ID(sm.rem * (sm.q + 1))
	if r < wide {
		return int(r) / (sm.q + 1)
	}
	return sm.rem + int(r-wide)/sm.q
}

// Local translates global resource r into its shard-local identifier.
func (sm ShardMap) Local(r ID) ID {
	return r - sm.Start(sm.ShardOf(r))
}

// Split partitions a global resource set into per-shard local sets,
// returned in ascending shard order and skipping shards the set does
// not touch. Each part's Set ranges over that shard's local universe.
func (sm ShardMap) Split(rs Set) []ShardPart {
	if rs.Universe() != sm.m {
		panic("resource: split of a set over a different universe")
	}
	var parts []ShardPart
	cur := -1
	rs.ForEach(func(r ID) {
		s := sm.ShardOf(r)
		if s != cur {
			parts = append(parts, ShardPart{Shard: s, Local: NewSet(sm.Size(s))})
			cur = s
		}
		p := &parts[len(parts)-1]
		p.Local.Add(r - sm.Start(s))
	})
	return parts
}

// ShardPart is one shard's slice of a cross-shard request: the shard id
// and the requested resources in that shard's local identifier space.
type ShardPart struct {
	Shard int
	Local Set
}

func (sm ShardMap) checkShard(s int) {
	if s < 0 || s >= sm.g {
		panic(fmt.Sprintf("resource: shard %d outside [0,%d)", s, sm.g))
	}
}

func (sm ShardMap) checkID(r ID) {
	if r < 0 || int(r) >= sm.m {
		panic(fmt.Sprintf("resource: id %d outside universe [0,%d)", r, sm.m))
	}
}
