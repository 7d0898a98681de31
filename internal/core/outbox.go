package core

import (
	"slices"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
)

// outbox implements the aggregation mechanism of §4.2.2: within one
// activation (one Request/Release/Deliver call), messages to the same
// destination are buffered and combined — request messages into one
// reqBatch carrying the activation's visited set, responses (counters
// and tokens) into one respBatch. With aggregation disabled every item
// travels alone, which is ablation A2.
type outbox struct {
	reqs []destReq
	miss []resource.Set // the buffered reqLoans' sets, in reqs order (batch.Missing)
	cnts []destCnt
	toks []destTok

	// dests is flush's scratch list of unique destinations, reused
	// across activations. An activation talks to a handful of sites, so
	// linear scans beat a map here — and allocate nothing.
	dests []network.NodeID

	// free holds the records this node was delivered and is done with,
	// scrubbed (see recycle and batch): the next flush fills them
	// instead of allocating. Only the node's own serialized activations
	// reach this list.
	free []*batch
}

// maxFreeBatches caps the free list: a site that receives more than it
// sends (a hot token holder's forwarders) leaves the surplus to the GC.
const maxFreeBatches = 64

type destReq struct {
	to network.NodeID
	r  request
}
type destCnt struct {
	to network.NodeID
	c  counterVal
}
type destTok struct {
	to network.NodeID
	t  *token
}

// request buffers r for to; miss is the missing set of a reqLoan and
// ignored for the other kinds.
func (o *outbox) request(to network.NodeID, r *request, miss resource.Set) {
	o.reqs = append(o.reqs, destReq{to, *r})
	if r.Kind == reqLoan {
		o.miss = append(o.miss, miss)
	}
}

func (o *outbox) counter(to network.NodeID, c counterVal) {
	o.cnts = append(o.cnts, destCnt{to, c})
}

func (o *outbox) token(to network.NodeID, t *token) {
	o.toks = append(o.toks, destTok{to, t})
}

// destAdd records a destination in first-occurrence order.
func (o *outbox) destAdd(to network.NodeID) {
	for _, d := range o.dests {
		if d == to {
			return
		}
	}
	o.dests = append(o.dests, to)
}

// get returns a record for to that carries nothing but, unless to was
// told them already (told), the hints held, and the ring's entries to
// was not sent yet: a recycled record when the free list has any, else
// a fresh one (newBatch).
func (o *outbox) get(to network.NodeID, held []hint, told []bool, ring *relayRing) *batch {
	var b *batch
	if n := len(o.free); n > 0 {
		b = o.free[n-1]
		o.free[n-1] = nil
		o.free = o.free[:n-1]
	} else {
		b = newBatch()
	}
	if !told[to] {
		b.Hints = append(b.Hints, held...)
		told[to] = true
	}
	b.Relay = ring.appendNew(b.Relay, to)
	return b
}

// recycle scrubs a delivered record — no token and no missing set may
// stay reachable from a record waiting for reuse; its requests, hints
// and relays hold no pointer and are merely truncated — and keeps it for
// the next flush.
// Callers recycle only after the activation's flush has returned: a
// forwarded batch reads the record's Visited until then.
func (o *outbox) recycle(b *batch) {
	if len(o.free) >= maxFreeBatches {
		return
	}
	if len(b.Missing) > 0 {
		clear(b.Missing)
	}
	if len(b.Tokens) > 0 {
		clear(b.Tokens)
	}
	// A list that moved to storage of its own left its first entries
	// behind in the record's first storage.
	if cap(b.Missing) > len(b.oneSet) {
		b.oneSet = [len(b.oneSet)]resource.Set{}
	}
	if cap(b.Tokens) > len(b.tokens) {
		b.tokens = [len(b.tokens)]*token{}
	}
	b.Visited, b.Reqs, b.Missing = b.Visited[:0], b.Reqs[:0], b.Missing[:0]
	b.Counters, b.Tokens, b.Hints = b.Counters[:0], b.Tokens[:0], b.Hints[:0]
	b.Relay = b.Relay[:0]
	o.free = append(o.free, b)
}

// flush transmits everything buffered. visited is the set the requests
// being forwarded arrived with (nil for the node's own); every request
// batch copies it, plus the sending site, into its own record, so the
// caller keeps the slice and no two receivers share one. held, the
// tokens the node holds, is copied the same way into the first record
// for each site since held last changed; told marks the sites that have
// it. A site that was sent a list on its FIFO link has acted on every
// hint in it before it reads the next record, so sending the list again
// could move no pointer. For the same reason a record relays only the
// ring's entries its destination was not sent yet, whatever its kind.
func (o *outbox) flush(env alg.Env, visited []network.NodeID, held []hint, told []bool, ring *relayRing, aggregate bool) {
	if len(o.reqs) > 0 {
		if aggregate {
			// Index loops throughout: a destReq is 48 bytes, and these
			// passes run once per destination.
			o.dests = o.dests[:0]
			for i := range o.reqs {
				o.destAdd(o.reqs[i].to)
			}
			for _, to := range o.dests {
				n := 0
				for i := range o.reqs {
					if o.reqs[i].to == to {
						n++
					}
				}
				b := o.get(to, held, told, ring)
				b.stamp(visited, env.ID())
				b.Reqs = slices.Grow(b.Reqs, n)
				sets := loanSets(o.miss)
				for i := range o.reqs {
					miss := sets.next(&o.reqs[i].r)
					if o.reqs[i].to != to {
						continue
					}
					b.addReq(&o.reqs[i].r, miss)
				}
				env.Send(to, (*reqBatch)(b))
			}
		} else {
			sets := loanSets(o.miss)
			for i := range o.reqs {
				b := o.get(o.reqs[i].to, held, told, ring)
				b.stamp(visited, env.ID())
				b.addReq(&o.reqs[i].r, sets.next(&o.reqs[i].r))
				env.Send(o.reqs[i].to, (*reqBatch)(b))
			}
		}
		clear(o.miss)
		o.reqs, o.miss = o.reqs[:0], o.miss[:0]
	}
	if len(o.cnts) == 0 && len(o.toks) == 0 {
		return
	}
	if aggregate {
		o.dests = o.dests[:0]
		for _, x := range o.cnts {
			o.destAdd(x.to)
		}
		for _, x := range o.toks {
			o.destAdd(x.to)
		}
		for _, to := range o.dests {
			nc, nt := 0, 0
			for _, x := range o.cnts {
				if x.to == to {
					nc++
				}
			}
			for _, x := range o.toks {
				if x.to == to {
					nt++
				}
			}
			b := o.get(to, held, told, ring)
			b.Counters = slices.Grow(b.Counters, nc)
			for _, x := range o.cnts {
				if x.to == to {
					b.Counters = append(b.Counters, x.c)
				}
			}
			b.Tokens = slices.Grow(b.Tokens, nt)
			for _, x := range o.toks {
				if x.to == to {
					b.Tokens = append(b.Tokens, x.t)
				}
			}
			env.Send(to, (*respBatch)(b))
		}
	} else {
		for _, x := range o.cnts {
			b := o.get(x.to, held, told, ring)
			b.Counters = append(b.Counters, x.c)
			env.Send(x.to, (*respBatch)(b))
		}
		for _, x := range o.toks {
			b := o.get(x.to, held, told, ring)
			b.Tokens = append(b.Tokens, x.t)
			env.Send(x.to, (*respBatch)(b))
		}
	}
	o.cnts = o.cnts[:0]
	o.toks = o.toks[:0]
}
