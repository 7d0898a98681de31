// Package explore runs alg.Node instances one caller-chosen step at a
// time. A World is fresh nodes from an alg.Factory, an Env per site, a
// FIFO queue per ordered link and a clock that moves only on a Tick.
// Tests script interleavings on it by hand; Search enumerates all of a
// small Shape's, checking the paper's Annex B properties (safety at every
// state, liveness at every terminal one) under every FIFO delivery order.
package explore

import (
	"bytes"
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
// or hypothesis-4 violation stops the step that caused it.
type World struct {
	nodes   []alg.Node
	m       int
	now     sim.Time
	mon     *verify.Monitor
	flight  []Msg          // in send order; a link's queue is its subsequence
	want    []resource.Set // each pending or in-CS site's set
	pending []bool         // requested, not yet granted
	inCS    []bool
}

// New builds the n nodes of f over m resources and attaches them.
func New(f alg.Factory, n, m int) *World {
	nodes := f(n, m)
	if len(nodes) != n {
		panic(fmt.Sprintf("explore: factory built %d nodes, want %d", len(nodes), n))
	}
	w := &World{nodes: nodes, m: m, mon: verify.New(m, func(v verify.Violation) { panic(v) }),
		want: make([]resource.Set, n), pending: make([]bool, n), inCS: make([]bool, n)}
	for i, nd := range nodes {
		nd.Attach(&env{w, network.NodeID(i)})
	}
	return w
}

// Node returns site s's node.
func (w *World) Node(s int) alg.Node { return w.nodes[s] }

// InFlight lists the undelivered messages in send order, in a slice that
// is the World's and valid until the next step.
func (w *World) InFlight() []Msg { return w.flight }

// InCS reports whether site s is inside its critical section.
func (w *World) InCS(s int) bool { return w.inCS[s] }

// Request has site s ask for rs.
func (w *World) Request(s int, rs resource.Set) {
	w.mon.Requested(network.NodeID(s), w.now)
	w.want[s], w.pending[s] = rs, true
	w.nodes[s].Request(rs)
}

// Release ends site s's critical section.
func (w *World) Release(s int) {
	w.mon.Released(network.NodeID(s), w.want[s], w.now)
	w.inCS[s] = false
	w.nodes[s].Release()
	w.want[s] = resource.Set{} // an idle site's last set is no state
}

// Tick moves the clock by d and ticks every alg.Ticker node.
func (w *World) Tick(d sim.Time) {
	w.now += d
	for _, nd := range w.nodes {
		if t, ok := nd.(alg.Ticker); ok {
			t.Tick(w.now)
		}
	}
}

// Drain delivers in send order every message that hold rejects (nil
// holds none) and whatever those deliveries send, until what is left is
// held or queued behind a held message on its link.
func (w *World) Drain(hold func(Msg) bool) {
	for i := 0; i < len(w.flight); {
		if x := w.flight[i]; (hold == nil || !hold(x)) && w.link(x.From, x.To) == i {
			w.deliver(i) // what is before i stays held or behind a held message
		} else {
			i++
		}
	}
}

// link is the index in flight of the oldest message on a→b, or -1.
func (w *World) link(a, b network.NodeID) int {
	return slices.IndexFunc(w.flight, func(x Msg) bool { return x.From == a && x.To == b })
}

// deliver takes flight[i] off its link and hands it to its receiver.
func (w *World) deliver(i int) {
	x := w.flight[i]
	w.flight = slices.Delete(w.flight, i, i+1) // zeroes the vacated slot
	w.nodes[x.To].Deliver(x.From, x.M)
}

// env is one site's alg.Env.
type env struct {
	w  *World
	id network.NodeID
}

func (e *env) ID() network.NodeID { return e.id }
func (e *env) N() int             { return len(e.w.nodes) }
func (e *env) M() int             { return e.w.m }
func (e *env) Now() sim.Time      { return e.w.now }

func (e *env) Send(to network.NodeID, m network.Message) {
	if to == e.id || to < 0 || int(to) >= len(e.w.nodes) {
		panic(fmt.Sprintf("explore: site %d sending %s to site %d", e.id, m.Kind(), to))
	}
	e.w.flight = append(e.w.flight, Msg{e.id, to, m})
}

func (e *env) Granted() {
	w, s := e.w, int(e.id)
	w.mon.Granted(e.id, w.want[s], w.now)
	w.pending[s], w.inCS[s] = false, true
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

// Options extend a search from an algorithm's own test package. Ignore
// names the struct fields the state fingerprint skips: scratch and
// statistics that do not decide what a node does next (func fields and
// the World's Envs are always skipped).
type Options struct {
	Invariant func(nodes []alg.Node, inflight []Msg) error // checked at every state
	Ignore    func(owner reflect.Type, f reflect.StructField) bool
}

// Result is what a search found: distinct states visited, how many had
// no choice left, whether it visited them all, the first violation.
type Result struct {
	States, Terminals int
	Complete          bool
	Err               *Failure
}

func (r Result) String() string {
	s := fmt.Sprintf("%d states, %d terminal, complete=%v", r.States, r.Terminals, r.Complete)
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
	s.enc = encoder{ptrs: map[uintptr]uint64{}, fields: map[reflect.Type][]int{}, ignore: opt.Ignore}
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
		return s.ok(path, s.finish())
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
			if w.link(a, b) >= 0 {
				cs = append(cs, choice{fmt.Sprintf("d%d>%d", a, b), func(s *search) { s.w.deliver(s.w.link(a, b)) }})
			}
		}
	}
	for site, in := range w.inCS {
		if in {
			cs = append(cs, choice{fmt.Sprintf("x%d", site), func(s *search) { s.w.Release(site) }})
		}
	}
	if s.w.now < sim.Time(s.sh.Ticks)*TickStep {
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
		return s.opt.Invariant(s.w.nodes, s.w.flight)
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
		err = s.step(choice{do: func(s *search) { s.w.mon.CheckQuiescent(s.w.now) }})
	}
	return err
}

// fingerprint hashes the state: the shape's progress, the nodes and
// each link's queue, links in order.
func (s *search) fingerprint() [32]byte {
	w, e := s.w, &s.enc
	e.buf = e.buf[:0]
	clear(e.ptrs)
	flight := slices.Clone(w.flight)
	slices.SortStableFunc(flight, func(x, y Msg) int { return int(x.From-y.From)*len(w.nodes) + int(x.To-y.To) })
	e.value(reflect.ValueOf([]any{w.now, s.issued, w.pending, w.inCS, w.want, w.nodes, flight}))
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
	ignore func(owner reflect.Type, f reflect.StructField) bool
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
			if f := v.Type().Field(i); f.Type.Kind() != reflect.Func && (e.ignore == nil || !e.ignore(v.Type(), f)) {
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
			sub := encoder{ptrs: map[uintptr]uint64{}, fields: e.fields, ignore: e.ignore}
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
