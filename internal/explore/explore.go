// Package explore is the deterministic runtime of alg.Node. A World is
// the nodes, an Env per site, a FIFO queue per ordered link, one clock,
// one verify.Monitor and one per-kind message count. What differs between
// its uses is who picks the next step: Search enumerates every schedule
// of a small Shape, checking the paper's Annex B properties (safety at
// every state, liveness at every terminal one) under every FIFO delivery
// order; a test scripts one by hand; and the simulator (internal/driver)
// lets time pick, in a World from NewTimed whose every send schedules its
// link's delivery at the instant network.Timing gives it.
package explore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
)

// Msg is one message in flight.
type Msg struct {
	From, To network.NodeID
	M        network.Message
}

// World is one protocol instance under the caller's control. Grants and
// releases go through a verify.Monitor whose report panics, so a safety
// or hypothesis-4 violation stops the step that caused it. The embedded
// Engine is the World's clock and agenda: Tick moves it, and in a timed
// World Run and RunUntil step the deliveries it holds.
type World struct {
	sim.Engine
	nodes   []alg.Node
	m       int
	mon     *verify.Monitor
	want    []resource.Set // each pending or in-CS site's set
	pending []bool         // requested, not yet granted
	inCS    []bool

	// The messages in flight are slots, each on its link's FIFO list, so
	// a link's oldest message is one lookup whatever else is in flight.
	slots []slot
	links []fifo  // link a→b at a*N+b
	free  int32   // first spare slot, chained through next; -1: none
	view  []Msg   // InFlight's result
	order []int32 // InFlight's scratch: slots in send order

	// kinds counts what the nodes sent per kind, in first-seen order: a
	// scan of a handful of kinds beats hashing every message's kind.
	kinds []kindCount
	total int64

	tm      *network.Timing // nil: the caller picks every delivery
	granted func(site int)
}

// slot holds one message in flight, or is spare. A timed World binds its
// run, the delivery of the slot's link's oldest message, on first use.
type slot struct {
	Msg
	seq  int64 // send order, across links
	next int32 // the next slot on the link, or the next spare; -1: none
	run  func()
}

// fifo is one link's in-flight slots, oldest first; -1: empty.
type fifo struct{ head, tail int32 }

// New builds the n nodes of f over m resources and attaches them.
func New(f alg.Factory, n, m int) *World {
	nodes := f(n, m)
	if len(nodes) != n {
		panic(fmt.Sprintf("explore: factory built %d nodes, want %d", len(nodes), n))
	}
	return attach(&World{}, nodes, m)
}

// NewTimed attaches nodes over m resources in a World run by time: every
// Send also schedules, at the instant tm gives the message, the delivery
// of its link's oldest message. Links stay FIFO under tm, so that is the
// message sent. granted, if not nil, learns of each grant once the
// Monitor has checked it. The caller schedules its own steps with At;
// the agenda owns every delivery, so Drain panics on a timed World.
func NewTimed(nodes []alg.Node, m int, tm *network.Timing, granted func(site int)) *World {
	return attach(&World{tm: tm, granted: granted}, nodes, m)
}

func attach(w *World, nodes []alg.Node, m int) *World {
	n := len(nodes)
	w.nodes, w.m, w.mon = nodes, m, verify.New(m, func(v verify.Violation) { panic(v) })
	w.want, w.pending, w.inCS = make([]resource.Set, n), make([]bool, n), make([]bool, n)
	w.links, w.free = make([]fifo, n*n), -1
	for l := range w.links {
		w.links[l] = fifo{-1, -1}
	}
	for i, nd := range nodes {
		nd.Attach(&env{w, network.NodeID(i)})
	}
	return w
}

// Node returns site s's node.
func (w *World) Node(s int) alg.Node { return w.nodes[s] }

// Monitor is the World's safety and liveness monitor.
func (w *World) Monitor() *verify.Monitor { return w.mon }

// Stats counts what the nodes have sent, by kind.
func (w *World) Stats() network.Stats {
	s := network.Stats{ByKind: make(map[string]int64, len(w.kinds)), Total: w.total}
	for _, k := range w.kinds {
		s.ByKind[k.kind] = k.n
	}
	return s
}

type kindCount struct {
	kind string
	n    int64
}

func (w *World) count(kind string) {
	w.total++
	for i := range w.kinds {
		if w.kinds[i].kind == kind {
			w.kinds[i].n++
			return
		}
	}
	w.kinds = append(w.kinds, kindCount{kind, 1})
}

// InFlight lists the undelivered messages in send order, in a slice that
// is the World's and valid until the next step.
func (w *World) InFlight() []Msg {
	w.order = w.order[:0]
	for _, l := range w.links {
		for i := l.head; i >= 0; i = w.slots[i].next {
			w.order = append(w.order, i)
		}
	}
	slices.SortFunc(w.order, func(i, j int32) int { return cmp.Compare(w.slots[i].seq, w.slots[j].seq) })
	w.view = w.view[:0]
	for _, i := range w.order {
		w.view = append(w.view, w.slots[i].Msg)
	}
	return w.view
}

// InCS reports whether site s is inside its critical section.
func (w *World) InCS(s int) bool { return w.inCS[s] }

// Request has site s ask for rs.
func (w *World) Request(s int, rs resource.Set) {
	w.mon.Requested(network.NodeID(s), w.Now())
	w.want[s], w.pending[s] = rs, true
	w.nodes[s].Request(rs)
}

// Release ends site s's critical section.
func (w *World) Release(s int) {
	w.mon.Released(network.NodeID(s), w.want[s], w.Now())
	w.inCS[s] = false
	w.nodes[s].Release()
	w.want[s] = resource.Set{} // an idle site's last set is no state
}

// Tick moves the clock by d, running what the agenda holds until then,
// and ticks every alg.Ticker node.
func (w *World) Tick(d sim.Time) {
	w.RunUntil(w.Now() + d)
	for _, nd := range w.nodes {
		if t, ok := nd.(alg.Ticker); ok {
			t.Tick(w.Now())
		}
	}
}

// Drain delivers in send order every message that hold rejects (nil
// holds none) and whatever those deliveries send, until what is left is
// held or queued behind a held message on its link. A timed World's
// agenda owns its deliveries, so Drain panics there.
func (w *World) Drain(hold func(Msg) bool) {
	if w.tm != nil {
		panic("explore: Drain on a timed World, whose agenda owns every delivery")
	}
	for {
		next := int32(-1) // the oldest link head hold lets through
		for _, l := range w.links {
			if i := l.head; i >= 0 && (next < 0 || w.slots[i].seq < w.slots[next].seq) && (hold == nil || !hold(w.slots[i].Msg)) {
				next = i
			}
		}
		if next < 0 {
			return
		}
		w.deliver(w.slots[next].From, w.slots[next].To)
	}
}

// link is a→b's FIFO.
func (w *World) link(a, b network.NodeID) *fifo { return &w.links[int(a)*len(w.nodes)+int(b)] }

// deliver takes the oldest message off link a→b and hands it to b.
func (w *World) deliver(a, b network.NodeID) {
	l := w.link(a, b)
	i := l.head
	s := &w.slots[i]
	m := s.M
	if l.head = s.next; l.head < 0 {
		l.tail = -1
	}
	s.Msg, s.next, w.free = Msg{}, w.free, i
	w.nodes[b].Deliver(a, m)
}

// push puts x at the tail of its link, in a spare slot if there is one,
// and returns the slot.
func (w *World) push(x Msg) int32 {
	i := w.free
	if i < 0 {
		i = int32(len(w.slots))
		w.slots = append(w.slots, slot{})
	} else {
		w.free = w.slots[i].next
	}
	w.slots[i].Msg, w.slots[i].seq, w.slots[i].next = x, w.total, -1
	if l := w.link(x.From, x.To); l.tail < 0 {
		l.head, l.tail = i, i
	} else {
		w.slots[l.tail].next, l.tail = i, i
	}
	return i
}

// schedule books the delivery of the message slot i was just given at
// the instant the timing rule sets. Its link is FIFO under the rule, so
// delivering the link's oldest message then delivers this one.
func (w *World) schedule(i int32) {
	s := &w.slots[i]
	if s.run == nil {
		s.run = func() { w.deliver(w.slots[i].From, w.slots[i].To) }
	}
	w.At(w.tm.Due(w.Now(), s.From, s.To), s.run)
}

// env is one site's alg.Env.
type env struct {
	w  *World
	id network.NodeID
}

func (e *env) ID() network.NodeID { return e.id }
func (e *env) N() int             { return len(e.w.nodes) }
func (e *env) M() int             { return e.w.m }
func (e *env) Now() sim.Time      { return e.w.Now() }

func (e *env) Send(to network.NodeID, m network.Message) {
	w := e.w
	if to == e.id || to < 0 || int(to) >= len(w.nodes) {
		panic(fmt.Sprintf("explore: site %d sending %s to site %d", e.id, m.Kind(), to))
	}
	w.count(m.Kind())
	if i := w.push(Msg{e.id, to, m}); w.tm != nil {
		w.schedule(i)
	}
}

func (e *env) Granted() {
	w, s := e.w, int(e.id)
	w.mon.Granted(e.id, w.want[s], w.Now())
	w.pending[s], w.inCS[s] = false, true
	if w.granted != nil {
		w.granted(s)
	}
}

// TickStep is how far one tick of a search moves the clock; settleTicks
// bounds the ticks a timed terminal state gets (finish); a search stops,
// cut off, after maxStates distinct states.
const TickStep, settleTicks, maxStates = sim.Millisecond, 64, 30_000

// Shape is one small instance: N sites, M resources, what each site
// requests, and how many ticks one schedule may take (leases need the
// clock to move). Sets lists per site the requests it issues, in order;
// with Sets nil every site issues PerSite requests, each any non-empty
// subset of the M resources, and the search branches on the set too.
// Name labels the shape in a caller's log.
type Shape struct {
	Name          string
	N, M, PerSite int
	Sets          [][]resource.Set
	Ticks         int
}

// Shapes is the committed list every algorithm is searched on: every
// pair of requests at N = 2 and M ≤ 2, four races at N = 3 (a
// two-resource request between two single ones, three requests that
// overlap in a cycle, bouabdallah's owed-token inversion, two requests
// per site), and bouabdallah's overtaking INQUIRE at N = 4.
func Shapes() []Shape {
	set := func(m int, ids ...resource.ID) resource.Set { return resource.FromIDs(m, ids...) }
	return []Shape{
		{Name: "2x1 any/1", N: 2, M: 1, PerSite: 1},
		{Name: "2x1 any/2", N: 2, M: 1, PerSite: 2},
		{Name: "2x2 any/1", N: 2, M: 2, PerSite: 1},
		{Name: "2x2 any/2", N: 2, M: 2, PerSite: 2},
		{Name: "3x2 chain", N: 3, M: 2, Sets: [][]resource.Set{{set(2, 0, 1)}, {set(2, 0)}, {set(2, 1)}}},
		{Name: "3x3 cycle", N: 3, M: 3, Sets: [][]resource.Set{{set(3, 0, 1)}, {set(3, 1, 2)}, {set(3, 0, 2)}}},
		{Name: "3x2 owed-token", N: 3, M: 2, Sets: [][]resource.Set{{set(2, 0), set(2, 0)}, {set(2, 1)}, {set(2, 0)}}},
		{Name: "3x2 twice", N: 3, M: 2, Sets: [][]resource.Set{{set(2, 0), set(2, 0, 1)}, {set(2, 0, 1), set(2, 1)}, {set(2, 1), set(2, 0)}}},
		{Name: "4x2 overtaking", N: 4, M: 2, Sets: [][]resource.Set{{set(2, 0), set(2, 0)}, {set(2, 1)}, {set(2, 0)}, {set(2, 0)}}},
	}
}

// Options extend a search from an algorithm's own test package.
//
// The state fingerprint skips func fields, the World's Envs and every
// struct field tagged `explore:"-"`: a node's scratch space, statistics
// and the first storage of its lists, which do not decide what it does
// next.
type Options struct {
	Invariant func(nodes []alg.Node, inflight []Msg) error // checked at every state
}

// Result is what a search found: distinct states visited, how many had
// no choice left, whether it visited them all, the first violation, and
// the least and most messages sent per grant over the terminal states
// visited (each priced on the first schedule that reached it).
type Result struct {
	States, Terminals        int
	Complete                 bool
	MinPerGrant, MaxPerGrant float64
	Err                      *Failure
}

func (r Result) String() string {
	s := fmt.Sprintf("%d states, %d terminal, complete=%v, msgs/grant %.2f–%.2f",
		r.States, r.Terminals, r.Complete, r.MinPerGrant, r.MaxPerGrant)
	if r.Err != nil {
		s += ": " + r.Err.Error()
	}
	return s
}

// Failure is a violation and the schedule that reaches it, as Replay
// takes it: r<s>{set} site s requests set, d<a>><b> link a→b delivers
// its oldest message, x<s> site s releases, t the clock ticks.
type Failure struct{ Vector, Cause string }

func (f *Failure) Error() string { return f.Cause + " [schedule: " + f.Vector + "]" }

type choice struct {
	name string
	do   func(*search)
}

func (c choice) String() string { return c.name }

var tick = choice{"t", func(s *search) { s.w.Tick(TickStep) }}

// search is one search, standing at one state of one schedule.
type search struct {
	f      alg.Factory
	sh     Shape
	opt    Options
	menu   []resource.Set // every non-empty subset, when sh.Sets is nil
	script []string       // Replay's schedule
	seen   map[[32]byte]bool
	res    Result
	enc    encoder
	w      *World
	issued []int // requests issued per site
}

// Search explores every schedule of sh depth first. It backtracks by
// rebuilding the World from f and replaying the prefix, prunes states
// it has seen, and stops at the first violation.
func Search(f alg.Factory, sh Shape, opt Options) Result { return explore(f, sh, opt, nil) }

// Replay runs the one schedule of sh that a Failure's vector names, with
// every check, and returns the violation it reaches, or nil.
func Replay(f alg.Factory, sh Shape, opt Options, vector string) error {
	if res := explore(f, sh, opt, strings.Fields(vector)); res.Err != nil {
		return res.Err
	}
	return nil
}

func explore(f alg.Factory, sh Shape, opt Options, script []string) Result {
	s := &search{f: f, sh: sh, opt: opt, script: script, seen: map[[32]byte]bool{}}
	s.enc = encoder{ptrs: map[uintptr]uint64{}, fields: map[reflect.Type][]int{}}
	for mask := 1; mask < 1<<sh.M; mask++ {
		s.menu = append(s.menu, resource.NewSet(sh.M))
		for id := range sh.M {
			if mask>>id&1 == 1 {
				s.menu[mask-1].Add(resource.ID(id))
			}
		}
	}
	s.reset(nil)
	s.res.Complete = s.ok(nil, s.step(choice{do: func(*search) {}})) && s.dfs(nil)
	return s.res
}

// reset rebuilds the World and replays path on it.
func (s *search) reset(path []choice) {
	s.w, s.issued = New(s.f, s.sh.N, s.sh.M), make([]int, s.sh.N)
	for _, c := range path {
		if err := s.step(c); err != nil {
			panic(fmt.Sprintf("explore: replay diverged, a node is not deterministic: %v", err))
		}
	}
}

func (s *search) dfs(path []choice) bool {
	fp := s.fingerprint()
	if s.seen[fp] {
		return true
	} else if len(s.seen) >= maxStates {
		return false
	}
	s.seen[fp] = true
	s.res.States++
	cs := s.enabled()
	if d := len(path); s.script != nil && d < len(s.script) {
		if cs = slices.DeleteFunc(cs, func(c choice) bool { return c.name != s.script[d] }); len(cs) == 0 {
			return s.ok(path, fmt.Errorf("explore: step %q is not possible here", s.script[d]))
		}
	} else if s.script != nil && len(cs) > 0 {
		return true
	}
	if len(cs) == 0 {
		s.res.Terminals++
		err := s.finish()
		p := float64(s.w.total) / float64(max(s.w.mon.Grants(), 1))
		if s.res.Terminals == 1 {
			s.res.MinPerGrant, s.res.MaxPerGrant = p, p
		}
		s.res.MinPerGrant, s.res.MaxPerGrant = min(s.res.MinPerGrant, p), max(s.res.MaxPerGrant, p)
		return s.ok(path, err)
	}
	for i, c := range cs {
		if i > 0 {
			s.reset(path)
		}
		next := append(path, c)
		if !s.ok(next, s.step(c)) || !s.dfs(next) {
			return false
		}
	}
	return true
}

func (s *search) ok(path []choice, err error) bool {
	if err != nil {
		s.res.Err = &Failure{strings.Trim(fmt.Sprint(path), "[]"), err.Error()}
	}
	return err == nil
}

// enabled lists the choices of the current state in canonical order.
// Only an idle site requests: hypothesis 4 holds by construction.
func (s *search) enabled() (cs []choice) {
	w, n := s.w, network.NodeID(s.sh.N)
	for site, k := range s.issued {
		asks := s.menu
		if s.sh.Sets != nil {
			asks = s.sh.Sets[site][k:min(k+1, len(s.sh.Sets[site]))]
		} else if k >= s.sh.PerSite {
			asks = nil
		}
		for _, set := range asks {
			if !w.pending[site] && !w.inCS[site] {
				cs = append(cs, choice{fmt.Sprintf("r%d%v", site, set), func(s *search) { s.issued[site]++; s.w.Request(site, set.Clone()) }})
			}
		}
	}
	for a := range n {
		for b := range n {
			if w.link(a, b).head >= 0 {
				cs = append(cs, choice{fmt.Sprintf("d%d>%d", a, b), func(s *search) { s.w.deliver(a, b) }})
			}
		}
	}
	for site, in := range w.inCS {
		if in {
			cs = append(cs, choice{fmt.Sprintf("x%d", site), func(s *search) { s.w.Release(site) }})
		}
	}
	if s.w.Now() < sim.Time(s.sh.Ticks)*TickStep {
		cs = append(cs, tick)
	}
	return cs
}

// step takes c and checks the invariant at the state it leads to. A
// panic (a Monitor violation, a node's own assertion) is its failure.
func (s *search) step(c choice) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if err, _ = p.(error); err == nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}
	}()
	if c.do(s); s.opt.Invariant != nil {
		return s.opt.Invariant(s.w.nodes, s.w.InFlight())
	}
	return nil
}

// finish checks a terminal state: every request granted, nothing held.
// A timed shape first gets up to settleTicks more ticks, each followed
// by every delivery and release in send order: a lease-parked entry
// waits for time, not for a message.
func (s *search) finish() (err error) {
	for i := 0; err == nil && s.sh.Ticks > 0 && i < settleTicks && slices.Contains(s.w.pending, true); i++ {
		err = s.step(choice{do: func(s *search) {
			tick.do(s)
			for s.w.Drain(nil); slices.Contains(s.w.inCS, true); s.w.Drain(nil) {
				s.w.Release(slices.Index(s.w.inCS, true))
			}
		}})
	}
	if err == nil {
		err = s.step(choice{do: func(s *search) { s.w.mon.CheckQuiescent(s.w.Now()) }})
	}
	return err
}

// fingerprint hashes the state: the shape's progress, the nodes and
// each link's queue, links in order.
func (s *search) fingerprint() [32]byte {
	w, e := s.w, &s.enc
	e.buf = e.buf[:0]
	clear(e.ptrs)
	flight := w.InFlight() // rebuilt on every call, so sorting it is safe
	slices.SortStableFunc(flight, func(x, y Msg) int { return int(x.From-y.From)*len(w.nodes) + int(x.To-y.To) })
	e.value(reflect.ValueOf([]any{w.Now(), s.issued, w.pending, w.inCS, w.want, w.nodes, flight}))
	return sha256.Sum256(e.buf)
}

var envType = reflect.TypeOf(&env{})

// encoder writes a value, by reflection, as a canonical byte string: map
// entries in key order, and a pointer met again as the number of its
// first visit, so sharing and cycles encode as structure, not address.
type encoder struct {
	buf    []byte
	ptrs   map[uintptr]uint64
	fields map[reflect.Type][]int // per struct type, the fields encoded
}

func (e *encoder) value(v reflect.Value) {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case k == reflect.String:
		e.buf = append(binary.AppendUvarint(e.buf, uint64(v.Len())), v.String()...)
	case v.CanInt():
		e.buf = binary.AppendVarint(e.buf, v.Int())
	case v.CanUint():
		e.buf = binary.AppendUvarint(e.buf, v.Uint())
	case v.CanFloat():
		e.buf = binary.AppendUvarint(e.buf, math.Float64bits(v.Float()))
	case k == reflect.Slice || k == reflect.Array:
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len()))
		for i := range v.Len() {
			e.value(v.Index(i))
		}
	case (k == reflect.Pointer || k == reflect.Interface) && v.IsNil(), v.Type() == envType:
		e.buf = append(e.buf, 0)
	case k == reflect.Pointer: // a first visit gets the next number and its content
		at, seen := e.ptrs[v.Pointer()]
		if !seen {
			at = uint64(len(e.ptrs) + 1)
			e.ptrs[v.Pointer()] = at
		}
		if e.buf = binary.AppendUvarint(e.buf, at); !seen {
			e.value(v.Elem())
		}
	case k == reflect.Interface:
		name := v.Elem().Type().String()
		e.buf = append(binary.AppendUvarint(e.buf, uint64(len(name))), name...)
		e.value(v.Elem())
	case k == reflect.Struct:
		fields, ok := e.fields[v.Type()]
		for i := 0; !ok && i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Type.Kind() != reflect.Func && f.Tag.Get("explore") != "-" {
				fields = append(fields, i)
			}
		}
		if !ok {
			e.fields[v.Type()] = fields
		}
		for _, i := range fields {
			e.value(v.Field(i))
		}
	case k == reflect.Map: // entries in key order; keys share no pointers
		keys, vals := [][]byte{}, map[string]reflect.Value{}
		for it := v.MapRange(); it.Next(); {
			sub := encoder{ptrs: map[uintptr]uint64{}, fields: e.fields}
			sub.value(it.Key())
			keys, vals[string(sub.buf)] = append(keys, sub.buf), it.Value()
		}
		slices.SortFunc(keys, bytes.Compare)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(keys)))
		for _, k := range keys {
			e.buf = append(e.buf, k...)
			e.value(vals[string(k)])
		}
	}
}
