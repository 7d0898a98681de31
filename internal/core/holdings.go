package core

import (
	"slices"

	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// holding names one holding of R's token: H held it at V, or it is on
// its way to H at V (deviation 6, doc.go). A hint is a holding that
// names its sender.
type holding struct {
	R resource.ID
	H network.NodeID
	V tokVer
}

// logged is a holding in a node's log and the sequence number it was
// written under. The number decides only whether the holding goes out
// again to a site that was sent it, where it could move no pointer
// (doc.go): the explorer's fingerprint skips it.
type logged struct {
	holding
	seq uint64 `explore:"-"`
}

// relayCap is how many holdings a node's ring keeps at n sites: none
// below 16 sites, half of them up to sixteen below 128 sites, and eight
// from 128 on. As priced in deviation 6 (doc.go) and CHANGES.md: below
// 16 sites a ring does save messages, up to 9 % at 8 sites with 16
// entries, but it costs more CPU than they would: on the in-process
// benchmark at 8 sites a ring of 16 cut messages per critical section
// 6 % and operations per second 9–28 %. At the paper's load a ring of
// 16 sends 7 % fewer messages than one of 8 at 32 sites and 11 % fewer
// at 64, for 7 % more allocations. At 128 and 512 sites (the live
// largeN cells) it sends 4 % fewer, for 7–25 % more wire bytes, a
// quarter to a third more allocations and no less time per operation:
// every destination is then sent nearly the whole ring.
func relayCap(n int) int {
	switch {
	case n < 16:
		return 0
	case n < 128:
		return min(16, n/2)
	}
	return 8
}

// holdings is a node's log of what its records tell: held, the tokens
// it holds (first-hand, genesis holdings left out), by resource; and
// the ring, the freshest holdings it made (a token it sent) or learned
// (an entry that moved its father pointer), one entry per resource.
// Every LASS record, request or response, carries the entries written
// since the last record to its destination, held ones first. A ring of
// capacity 0 keeps and sends nothing.
type holdings struct {
	held   []logged
	ring   []logged // len is the fill, cap the capacity
	at     []uint8  // per resource: its ring slot + 1, 0 when it has none
	cursor int      // the slot the next new resource takes once the ring is full

	seq  uint64   `explore:"-"` // the last one given out
	sent []uint64 `explore:"-"` // per site: seq when a record last went to it
}

// newHoldings returns the log of a node among n sites over m resources
// whose ring has c entries.
func newHoldings(n, m, c int) holdings {
	g := holdings{sent: make([]uint64, n)}
	if c > 0 {
		g.ring, g.at = make([]logged, 0, c), make([]uint8, m)
	}
	return g
}

// heldAt is where r is, or belongs, in the held entries. A node holds a
// handful of tokens, so a scan beats a search.
func (g *holdings) heldAt(r resource.ID) int {
	i := 0
	for i < len(g.held) && g.held[i].R < r {
		i++
	}
	return i
}

// hold logs a token the node came to hold, as news.
func (g *holdings) hold(h holding) {
	g.seq++
	g.held = slices.Insert(g.held, g.heldAt(h.R), logged{h, g.seq})
}

// drop forgets r's held entry, if any. The holdings left are no news.
func (g *holdings) drop(r resource.ID) {
	if i := g.heldAt(r); i < len(g.held) && g.held[i].R == r {
		g.held = slices.Delete(g.held, i, i+1)
	}
}

// put records h in the ring over the entry of its resource when there
// is one, else in a free slot, else over the oldest entry: O(1), no
// scan.
func (g *holdings) put(h holding) {
	if cap(g.ring) == 0 {
		return
	}
	i := int(g.at[h.R]) - 1
	if i < 0 {
		if len(g.ring) < cap(g.ring) {
			i = len(g.ring)
			g.ring = g.ring[:i+1]
		} else {
			i = g.cursor
			if g.cursor++; g.cursor == len(g.ring) {
				g.cursor = 0 // no modulo: a division costs more than the rest of put
			}
			g.at[g.ring[i].R] = 0
		}
		g.at[h.R] = uint8(i + 1)
	}
	g.seq++
	g.ring[i] = logged{h, g.seq}
}

// news appends to dst the entries written since a record last went to
// site to, held ones first and none that names to, and marks them sent.
// It is O(1) when nothing is new.
func (g *holdings) news(dst []holding, to network.NodeID) []holding {
	last := g.sent[to]
	if last == g.seq {
		return dst
	}
	for _, list := range [2][]logged{g.held, g.ring} {
		for i := range list {
			if list[i].seq > last && list[i].H != to {
				dst = append(dst, list[i].holding)
			}
		}
	}
	g.sent[to] = g.seq
	return dst
}
