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
// entries to was not sent yet: a recycled record when the codec's pool
// has one, else a fresh one (pooledBatch).
func (o *outbox) get(to network.NodeID, log *holdings) *batch {
	b := pooledBatch()
	b.Holdings = log.news(b.Holdings, to)
	return b
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
