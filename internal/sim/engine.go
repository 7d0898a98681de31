package sim

// event is the scheduler's internal record of one scheduled callback.
// Records are recycled through Engine.free once they fire or their
// cancellation is collected, so the scheduling hot path allocates only
// when the agenda outgrows every previous high-water mark.
type event struct {
	at Time
	fn func()

	gen      uint64
	canceled bool
}

// entry is one agenda slot. The ordering key (at, seq) sits inline
// beside the record pointer, so sifting compares and moves slots of the
// heap's own array and never follows a pointer into a record.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the agenda order: by instant, ties in scheduling order.
// seq is unique, so the order is total and the pop sequence does not
// depend on how the heap happens to be laid out.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a cancellation handle for a scheduled callback, returned by
// Engine.At and Engine.After. The zero Event is valid and cancels
// nothing. Handles stay safe after the callback has fired: the record
// behind a spent handle may be recycled for a later event, and the
// generation stamp makes Cancel on the stale handle a no-op rather than
// a cancellation of the unrelated newcomer.
type Event struct {
	n   *event
	gen uint64
}

// At reports the instant the event is scheduled for. It is meaningful
// until the event fires or is canceled; afterwards it reports the
// schedule of whatever event currently occupies the recycled record.
func (ev Event) At() Time {
	if ev.n == nil {
		return 0
	}
	return ev.n.at
}

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now  Time
	seq  uint64
	heap []entry

	// free holds spent event records for reuse (a free-list pool).
	free []*event

	executed uint64
}

// New returns an engine with the clock at zero and an empty agenda.
func New() *Engine {
	return &Engine{heap: make([]entry, 0, 1024)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far (a cheap progress and
// complexity measure for tests and benchmarks).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports the number of events still scheduled, including
// canceled events whose records have not been collected yet.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at instant t. Scheduling in the past (t < Now)
// is a programming error and panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	if len(e.free) == 0 {
		// Refill the pool a slab at a time: one allocation per 64
		// records, and consecutive events stay cache-adjacent.
		slab := make([]event, 64)
		for i := range slab {
			e.free = append(e.free, &slab[i])
		}
	}
	// No need to nil the vacated slot: records are slab-backed and stay
	// reachable through the pool either way.
	n := len(e.free)
	ev := e.free[n-1]
	e.free = e.free[:n-1]
	ev.at, ev.fn, ev.canceled = t, fn, false
	e.push(entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return Event{n: ev, gen: ev.gen}
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Cancel removes ev from the agenda. Canceling the zero Event, an
// already-executed or already-canceled event, or a stale handle whose
// record has been recycled is a no-op, so callers need not track firing.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	// A record leaves the agenda only through recycle, which moves its
	// generation on: a matching generation means it is still scheduled.
	if n == nil || n.gen != ev.gen {
		return
	}
	n.canceled = true
}

// recycle returns a spent record to the pool. Bumping the generation
// invalidates every outstanding handle to it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Step executes the earliest pending event, advancing the clock to it.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.executed++
		fn := ev.fn
		// Recycle before running: fn frequently schedules a follow-up
		// (network deliveries, the driver's request cycle), and handing
		// it this record keeps the pool at its high-water mark. The
		// handle the caller holds is dead either way — the generation
		// has moved on.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run executes events until the agenda is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes every event scheduled at or before horizon, then
// advances the clock to horizon. Events scheduled later stay pending.
func (e *Engine) RunUntil(horizon Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// peek returns the earliest live event without removing it, discarding
// (and recycling) canceled entries on the way.
func (e *Engine) peek() *event {
	for len(e.heap) > 0 {
		if ev := e.heap[0].ev; !ev.canceled {
			return ev
		}
		e.recycle(e.pop())
	}
	return nil
}

// The heap is hand-rolled rather than container/heap to keep the keys
// inline and avoid interface boxing on the hot path. Both sifts move a
// hole instead of swapping: one slot written per level.

func (e *Engine) push(x entry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (e *Engine) pop() *event {
	h := e.heap
	n := len(h) - 1
	top := h[0].ev
	x := h[n]
	// No need to nil the vacated slot: records are slab-backed and stay
	// reachable through the pool either way.
	e.heap = h[:n]
	if n == 0 {
		return top
	}
	// Sift x down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(&h[child]) {
			child = right
		}
		if !h[child].before(&x) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
	return top
}
