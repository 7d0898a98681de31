package sim

// entry is one agenda slot: the callback with its ordering key (at, seq)
// inline, so sifting compares and moves slots of the heap's own array
// and never follows a pointer.
type entry struct {
	at  Time
	seq uint64
	fn  func()
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

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now  Time
	seq  uint64
	heap []entry

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

// At schedules fn to run at instant t. Scheduling in the past (t < Now)
// is a programming error and panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	e.push(entry{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Step executes the earliest pending event, advancing the clock to it.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	x := e.pop()
	e.now = x.at
	e.executed++
	x.fn()
	return true
}

// Run executes events until the agenda is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes every event scheduled at or before horizon, then
// advances the clock to horizon. Events scheduled later stay pending.
func (e *Engine) RunUntil(horizon Time) {
	for len(e.heap) > 0 && e.heap[0].at <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
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

func (e *Engine) pop() entry {
	h := e.heap
	n := len(h) - 1
	top := h[0]
	x := h[n]
	// Clear the vacated slot so the agenda's spare capacity does not keep
	// a spent callback reachable.
	h[n] = entry{}
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
