package core

import (
	"mralloc/internal/network"
)

// relay names a holding of R's token its sender made or learned: a
// hint plus its holder — H held it at V, or it is on its way to H at V
// (deviation 7, doc.go).
type relay struct {
	hint
	H network.NodeID
}

// relayCap is how many holdings a node's ring keeps at n sites: none
// below 16 sites, half of them up to sixteen below 128 sites, and eight
// from 128 on. As priced in deviation 7 (doc.go) and CHANGES.md: below
// 16 sites a ring saves under 3 % of the messages, and at 8 it cost more
// CPU than those messages. At the paper's load a ring of 16 sends 7 %
// fewer messages than one of 8 at 32 sites and 11 % fewer at 64, for
// 7 % more allocations. At 128 and 512 sites (the live largeN cells) it
// sends 4 % fewer, for 7–25 % more wire bytes, a quarter to a third more
// allocations and no less time per operation: every destination is
// then sent nearly the whole ring.
func relayCap(n int) int {
	switch {
	case n < 16:
		return 0
	case n < 128:
		return min(16, n/2)
	}
	return 8
}

// relayRing is a node's short list of the freshest holdings it made (a
// token it sent) or learned (a hint or relay that moved its father
// pointer), one entry per resource. Every LASS record, request or
// response, carries the entries its destination was not sent yet. A
// ring of capacity 0 keeps and sends nothing.
type relayRing struct {
	ents   []relay // len is the fill, cap the capacity
	at     []uint8 // per resource: its entry's slot + 1, 0 when it has none
	cursor int     // the slot the next new resource takes once the ring is full

	// The sequence numbers decide only whether an entry goes out again
	// to a site that was sent it, where it could move no pointer
	// (doc.go): the explorer's fingerprint skips them.
	seq   uint64   `explore:"-"` // the last one given out
	wrote []uint64 `explore:"-"` // per slot: its entry's
	sent  []uint64 `explore:"-"` // per site: seq when the ring last went out to it
}

// newRelayRing returns a ring of c entries for n sites over m resources.
func newRelayRing(n, m, c int) relayRing {
	if c == 0 {
		return relayRing{}
	}
	return relayRing{ents: make([]relay, 0, c), at: make([]uint8, m), wrote: make([]uint64, c), sent: make([]uint64, n)}
}

// put records h over the entry of its resource when there is one, else
// in a free slot, else over the oldest entry, and gives it the next
// sequence number: O(1), no scan.
func (g *relayRing) put(h relay) {
	if cap(g.ents) == 0 {
		return
	}
	i := int(g.at[h.R]) - 1
	if i < 0 {
		if len(g.ents) < cap(g.ents) {
			i = len(g.ents)
			g.ents = g.ents[:i+1]
		} else {
			i = g.cursor
			if g.cursor++; g.cursor == len(g.ents) {
				g.cursor = 0 // no modulo: a division costs more than the rest of put
			}
			g.at[g.ents[i].R] = 0
		}
		g.at[h.R] = uint8(i + 1)
	}
	g.ents[i] = h
	g.seq++
	g.wrote[i] = g.seq
}

// appendNew appends to dst the entries written since the ring last went
// out to site to, leaving out those that name to itself, and marks them
// sent. It is O(1) when nothing is new.
func (g *relayRing) appendNew(dst []relay, to network.NodeID) []relay {
	if g.seq == 0 {
		return dst // nothing was ever put, or the ring has no room
	}
	last := g.sent[to]
	if last == g.seq {
		return dst
	}
	for i := range g.ents {
		if g.wrote[i] > last && g.ents[i].H != to {
			dst = append(dst, g.ents[i])
		}
	}
	g.sent[to] = g.seq
	return dst
}
