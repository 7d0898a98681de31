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

	// free is the list of delivered records this node draws from and
	// recycles into, shared with the other nodes of its factory call.
	free *freeRecords
}

// firstRoom is the first capacity of a scratch list, the outbox's and
// the node's member lists alike, given on first use (room), not at
// Attach, so a site that never sends pays nothing. In sim_paper's runs
// (N = 32, M = 80, φ = 16) one activation buffers at most 16 requests,
// 16 tokens, 14 destinations and 7 counters, and a member list rarely
// passes 16. Sizing each list to its bound, M entries or N
// destinations, instead adds a fifth to that workload's set-up time:
// the bytes a one-P process collects.
const firstRoom = 16

// room gives a scratch list its first storage when it has none.
func room[T any](buf []T) []T {
	if buf == nil {
		return make([]T, 0, firstRoom)
	}
	return buf
}

// freeRecords holds the records the nodes of one NewFactory call were
// delivered and are done with, scrubbed (see recycle and batch): the
// next flush of any of them fills one instead of allocating. One list
// per call, not per node, so a site that is sent more records than it
// sends feeds one that sends more than it is sent. The runtimes step
// one call's nodes from one goroutine (alg.Factory), so no lock.
type freeRecords struct{ recs []*batch }

// maxFreeBatches caps the free list: records beyond it, which the
// call's nodes were sent more of than they send, are left to the GC.
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
	o.reqs = append(room(o.reqs), destReq{to, *r})
	if r.Kind == reqLoan {
		o.miss = append(o.miss, miss)
	}
}

func (o *outbox) counter(to network.NodeID, c counterVal) {
	o.cnts = append(room(o.cnts), destCnt{to, c})
}

func (o *outbox) token(to network.NodeID, t *token) {
	o.toks = append(room(o.toks), destTok{to, t})
}

// destAdd records a destination in first-occurrence order.
func (o *outbox) destAdd(to network.NodeID) {
	for _, d := range o.dests {
		if d == to {
			return
		}
	}
	o.dests = append(room(o.dests), to)
}

// get returns a record for to that carries nothing but the log's
// entries to was not sent yet: a recycled record when the free list has
// any, else a fresh one (newBatch).
func (o *outbox) get(to network.NodeID, log *holdings) *batch {
	var b *batch
	if f := o.free; len(f.recs) > 0 {
		n := len(f.recs) - 1
		b = f.recs[n]
		f.recs[n] = nil
		f.recs = f.recs[:n]
	} else {
		b = newBatch()
	}
	b.Holdings = log.news(b.Holdings, to)
	return b
}

// recycle scrubs a delivered record and keeps it for the next flush of
// any node that shares the list. Callers recycle only after the
// activation's flush has returned: a forwarded batch reads the record's
// Visited until then.
func (o *outbox) recycle(b *batch) {
	if len(o.free.recs) >= maxFreeBatches {
		return
	}
	b.scrub()
	o.free.recs = append(o.free.recs, b)
}

// scrub empties a record for reuse: no token and no missing set may stay
// reachable from a record waiting for it; its requests and holdings hold
// no pointer and are merely truncated.
func (b *batch) scrub() {
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
	b.Counters, b.Tokens, b.Holdings = b.Counters[:0], b.Tokens[:0], b.Holdings[:0]
}

// flush transmits everything buffered. visited is the set the requests
// being forwarded arrived with (nil for the node's own); every request
// batch copies it, plus the sending site, into its own record, so the
// caller keeps the slice and no two receivers share one. Every record
// carries the log's entries its destination was not sent yet, whatever
// its kind: a site that was sent an entry on its FIFO link has acted on
// it before it reads the next record, so sending it again could move no
// pointer.
func (o *outbox) flush(env alg.Env, visited []network.NodeID, log *holdings, aggregate bool) {
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
				b := o.get(to, log)
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
				b := o.get(o.reqs[i].to, log)
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
			b := o.get(to, log)
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
			b := o.get(x.to, log)
			b.Counters = append(b.Counters, x.c)
			env.Send(x.to, (*respBatch)(b))
		}
		for _, x := range o.toks {
			b := o.get(x.to, log)
			b.Tokens = append(b.Tokens, x.t)
			env.Send(x.to, (*respBatch)(b))
		}
	}
	o.cnts = o.cnts[:0]
	o.toks = o.toks[:0]
}
