package live

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
)

// ErrSessionClosed is returned by Acquire on a closed session.
var ErrSessionClosed = errors.New("live: session closed")

// ErrSessionBusy is returned when a session's Acquire overlaps another
// still in flight: a session is one client's serialized stream of
// requests, and multiplexing happens across sessions, not within one.
var ErrSessionBusy = errors.New("live: session already has an acquire in flight")

// Session is one client's handle onto a node: a serialized stream of
// Acquires multiplexed with every other session of the node through
// the admission scheduler. Any number of sessions may be open on one
// node; each admits at most one request at a time into the protocol
// (the paper's hypothesis 4 holds per node, below the sessions).
//
// Sessions are safe for concurrent use in the sense that misuse is
// detected (overlapping Acquires fail with ErrSessionBusy), but a
// session models one logical client — open more sessions for more
// concurrency.
//
// A session owns the request records (tickets) its Acquires travel on,
// one per shard it has touched, and uses them again for the next
// Acquire: a steady stream of acquires builds nothing but its release
// functions.
type Session struct {
	c    *Cluster
	node int
	id   uint64

	busy   atomic.Bool
	closed atomic.Bool

	grants atomic.Int64

	slots []slot    // by shard
	parts []*ticket // route's result; scratch of the running Acquire (busy-guarded)
}

// slot is a session's place for one shard's ticket.
type slot struct {
	// idle holds the ticket between acquires: nil before the first one
	// and while a ticket is out — until its release is acknowledged, or
	// for good when it was abandoned to the loop.
	idle atomic.Pointer[ticket]
	// cur is the ticket the running Acquire is filling (busy-guarded).
	cur *ticket
}

// NewSession opens a session on node id. Only locally hosted nodes
// serve sessions.
func (c *Cluster) NewSession(node int) (*Session, error) {
	if !c.Local(node) {
		return nil, fmt.Errorf("live: no local node %d", node)
	}
	select {
	case <-c.closed:
		return nil, ErrClosed
	default:
	}
	c.sessMu.Lock()
	c.sessSeq++
	id := c.sessSeq
	c.sessMu.Unlock()
	return &Session{c: c, node: node, id: id, slots: make([]slot, c.smap.Shards())}, nil
}

// ID reports the session's cluster-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Node reports the node the session is attached to.
func (s *Session) Node() int { return s.node }

// Grants reports how many Acquires this session has completed.
func (s *Session) Grants() int64 { return s.grants.Load() }

// Close invalidates the session: subsequent Acquires fail with
// ErrSessionClosed. It does not interrupt an Acquire already in flight
// (cancel its context for that) and does not revoke a held grant.
func (s *Session) Close() { s.closed.Store(true) }

// Acquire blocks until the session holds exclusive access to every
// resource in opts, then returns the release function. The function is
// idempotent and bound to this grant: calling it again, even after the
// session has acquired something else, releases nothing. Requests from
// all of a node's sessions queue in the admission scheduler and enter
// the protocol one at a time under the cluster's policy; aging
// guarantees no session starves.
//
// On a sharded cluster the set is split along shard boundaries and
// each part is acquired from its shard's allocator. A set inside one
// shard is a single protocol request, exactly like a flat acquire; a
// set spanning shards composes them, taking shards one at a time in
// ascending shard order (deadlock-free: every session walks shards in
// the same order). The grant is all-or-nothing: Acquire returns only
// when every part is held, and any failure hands back whatever was
// assembled.
//
// If ctx ends first, the request is withdrawn — immediately when still
// queued; by handing the grant straight back when the protocol has
// already committed to it (a grant cannot be revoked mid-protocol).
// Either way Acquire returns promptly with ctx.Err(). On a closed
// cluster it returns ErrClosed.
func (s *Session) Acquire(ctx context.Context, opts serve.AcquireOpts) (func(), error) {
	h, err := s.acquire(ctx, opts)
	if err != nil {
		return nil, err
	}
	return func() { h.release() }, nil
}

// acquire is Acquire up to the grant: what it holds is for the caller
// to wrap in a release function.
func (s *Session) acquire(ctx context.Context, opts serve.AcquireOpts) (hold, error) {
	if s.closed.Load() {
		return hold{}, ErrSessionClosed
	}
	if !s.busy.CompareAndSwap(false, true) {
		return hold{}, ErrSessionBusy
	}
	defer s.busy.Store(false)

	if len(opts.Resources) == 0 {
		return hold{}, fmt.Errorf("live: empty resource set")
	}
	for _, r := range opts.Resources {
		if r < 0 || r >= s.c.cfg.Resources {
			return hold{}, fmt.Errorf("live: no resource %d", r)
		}
	}
	deadline := opts.Deadline
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	var dl sim.Time
	if !deadline.IsZero() {
		dl = s.c.now() + sim.Time(time.Until(deadline)) // wall: the caller's deadline is a wall instant
		if dl <= 0 {
			dl = 1 // already due: the nearest possible deadline, not "none"
		}
	}

	var h hold
	var err error
	if parts := s.route(opts.Resources); len(parts) == 1 {
		// Whole set inside one shard (every flat acquire is this case):
		// one protocol request, no composition.
		h.first, err = s.acquireOne(ctx, parts[0], dl)
	} else {
		h, err = s.acquireOrdered(ctx, parts, dl)
	}
	if err != nil {
		return hold{}, err
	}
	s.grants.Add(1)
	return h, nil
}

// route splits a validated request along shard boundaries into the
// session's tickets, one per shard touched, each holding its part in
// the shard's local identifiers. It returns them in ascending shard
// order; the slice is the session's scratch, good until the next call.
func (s *Session) route(resources []int) []*ticket {
	sm := s.c.smap
	lo, hi := len(s.slots), -1
	for _, r := range resources {
		id := resource.ID(r)
		sh := sm.ShardOf(id)
		sl := &s.slots[sh]
		if sl.cur == nil {
			sl.cur = s.take(sh)
			lo, hi = min(lo, sh), max(hi, sh)
		}
		sl.cur.rs.Add(id - sm.Start(sh))
	}
	s.parts = s.parts[:0]
	for sh := lo; sh <= hi; sh++ {
		if sl := &s.slots[sh]; sl.cur != nil {
			s.parts = append(s.parts, sl.cur)
			sl.cur = nil
		}
	}
	return s.parts
}

// take hands out the session's ticket for shard sh: the idle one, or a
// new one on first use, after an abandonment, or while the previous
// acquire's grant is still held.
func (s *Session) take(sh int) *ticket {
	if t := s.slots[sh].idle.Swap(nil); t != nil {
		return t
	}
	t := &ticket{
		s:       s,
		l:       s.c.loops[sh][s.node],
		rs:      resource.NewSet(s.c.smap.Size(sh)),
		granted: make(chan struct{}, 1),
		done:    make(chan bool, 1),
	}
	t.item.Session, t.item.V = s.id, t
	return t
}

// put takes back a ticket the loop is done with: emptied, it waits in
// its slot for the next acquire (or is dropped when the slot was
// refilled meanwhile).
func (s *Session) put(t *ticket) {
	t.rs.Clear()
	s.slots[t.l.shard].idle.CompareAndSwap(nil, t)
}

// acquireOne runs one part's protocol request on its shard's loop and
// waits for the grant — the flat Acquire path, parameterized by shard.
// The ticket is the callee's: every way out but the grant returns it to
// its slot or leaves it with the loop.
func (s *Session) acquireOne(ctx context.Context, t *ticket, dl sim.Time) (grantRef, error) {
	if !s.submit(t, dl) {
		return grantRef{}, ErrClosed
	}
	select {
	case <-t.granted:
		return grantRef{t: t, gen: t.gen.Load()}, nil
	case <-s.c.closed:
		return grantRef{}, ErrClosed
	case <-ctx.Done():
		s.withdraw(t)
		return grantRef{}, ctx.Err()
	}
}

// acquireOrdered assembles a cross-shard set one shard at a time in
// ascending shard order (route's order). Every session walks shards in
// the same order, so no cycle of sessions can each hold a shard the
// next one needs. A failure hands back the prefix already held, in
// reverse.
func (s *Session) acquireOrdered(ctx context.Context, parts []*ticket, dl sim.Time) (hold, error) {
	refs := make([]grantRef, 0, len(parts))
	for i, t := range parts {
		g, err := s.acquireOne(ctx, t, dl)
		if err != nil {
			for _, u := range parts[i+1:] {
				s.put(u) // never submitted
			}
			for j := len(refs) - 1; j >= 0; j-- {
				refs[j].release()
			}
			return hold{}, err
		}
		refs = append(refs, g)
	}
	return hold{first: refs[0], more: refs[1:]}, nil
}

// submit enqueues a filled ticket on its loop, reporting false once the
// cluster is closing.
func (s *Session) submit(t *ticket, dl sim.Time) bool {
	t.item.Size, t.item.Deadline = t.rs.Len(), dl
	return t.l.post(cmdSubmit{t})
}

// withdraw cancels a submitted ticket through its loop. The loop always
// answers (or the cluster is closing, which ends every acquire anyway):
// a ticket it hands back returns to its slot, one it keeps is gone.
func (s *Session) withdraw(t *ticket) {
	if !t.l.post(cmdCancel{t}) {
		return
	}
	select {
	case back := <-t.done:
		if back {
			// A grant that raced the cancel left its signal behind.
			select {
			case <-t.granted:
			default:
			}
			s.put(t)
		}
	case <-s.c.closed:
	}
}

// grantRef names one grant of one ticket. The generation is what binds
// a release function to its own grant: the ticket carries on to later
// acquires, and a release arriving with an old generation is a no-op.
type grantRef struct {
	t   *ticket
	gen uint64
}

// release ends the grant, reporting whether this call was the one that
// did — false for a repeat or a call that outlived its grant. On a
// closing cluster the release degrades to a no-op: nothing is left to
// hand the resources to.
func (g grantRef) release() bool {
	t := g.t
	if !t.gen.CompareAndSwap(g.gen, g.gen+1) {
		return false
	}
	if t.l.post(cmdRelease{t}) {
		select {
		case <-t.done:
			t.s.put(t)
		case <-t.l.c.closed:
		}
	}
	return true
}

// hold is everything one Acquire was granted: one part for every
// single-shard acquire, and the rest of a cross-shard set behind it in
// ascending shard order.
type hold struct {
	first grantRef
	more  []grantRef
}

// release hands the parts back, last acquired first, reporting whether
// this call was the one that released them.
func (h hold) release() bool {
	for i := len(h.more) - 1; i >= 0; i-- {
		h.more[i].release()
	}
	return h.first.release()
}

// Acquire is the one-session convenience wrapper: it performs a single
// Acquire on node id through an ephemeral session, drawn from the
// cluster's spares and handed back when the grant is released. See
// Session.Acquire for the full semantics; concurrent Acquires on one
// node multiplex through the admission scheduler exactly like
// long-lived sessions.
func (c *Cluster) Acquire(ctx context.Context, id int, resources ...int) (func(), error) {
	s, err := c.spareSession(id)
	if err != nil {
		return nil, err
	}
	h, err := s.acquire(ctx, serve.AcquireOpts{Resources: resources})
	if err != nil {
		c.keepSpare(s)
		return nil, err
	}
	return func() {
		if h.release() {
			c.keepSpare(s)
		}
	}, nil
}

// spareSession takes an idle ephemeral session of node id, opening one
// when none is spare.
func (c *Cluster) spareSession(id int) (*Session, error) {
	if c.Local(id) {
		c.sessMu.Lock()
		if n := len(c.spare[id]); n > 0 {
			s := c.spare[id][n-1]
			c.spare[id] = c.spare[id][:n-1]
			c.sessMu.Unlock()
			return s, nil
		}
		c.sessMu.Unlock()
	}
	return c.NewSession(id)
}

func (c *Cluster) keepSpare(s *Session) {
	c.sessMu.Lock()
	c.spare[s.node] = append(c.spare[s.node], s)
	c.sessMu.Unlock()
}

// ticket is one admission request record: scheduler item, the shard's
// part of the request, and the signals its session waits on. It belongs
// to one session and one loop for life and carries one request after
// another. Between submit and the loop's answer — the grant followed by
// the release acknowledgement, or a cancel acknowledged with true — the
// loop owns every field but gen; otherwise the session does. The one
// exception is final: a ticket cancelled while in flight stays with the
// loop, and the session builds another.
type ticket struct {
	item serve.Item
	rs   resource.Set // the request, in the shard's local identifiers
	s    *Session
	l    *loop

	// Reusable signals, one slot each: the loop sends at most one value
	// per request on granted and one per command on done, and the
	// session consumes (or, for a grant that raced a cancel, drains)
	// each before the ticket is used again.
	granted chan struct{} // the CS is entered
	done    chan bool     // cmdRelease / cmdCancel handled; false: the loop keeps the ticket

	// gen counts the ticket's grants that have been released; a grant
	// is named by the value it was made under (see grantRef).
	gen atomic.Uint64

	admitted sim.Time // when the protocol Request was issued (loop only)

	// inCS and abandoned are loop-internal state: granted-but-not-yet
	// -released, and canceled-while-in-flight respectively.
	inCS      bool
	abandoned bool
}
