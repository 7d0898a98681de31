package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/wire"
)

// Faults is one link's fault profile. The zero value injects nothing.
//
// Drop and Dup deliberately violate the transport contract (reliability
// and no-duplication are the paper's channel hypotheses 1 and 3), and
// the algorithms survive neither: a dropped token is waited for forever
// and a token delivered twice is owned twice. A run that must stay
// safe and live stacks Reliable above them, which restores both
// (mrallocd refuses them, and kill-every, without -reliable); armed
// bare, they test the fabric and the wrappers themselves. Delay alone
// preserves every contract guarantee (messages are late, never lost,
// reordered only across links), so a delay-only schedule may still
// assert liveness once the fault window closes.
type Faults struct {
	// Drop is the probability a message (one Send, one fault decision)
	// is silently discarded.
	Drop float64
	// Dup is the probability a message is delivered twice, back to
	// back. Per-link FIFO is kept (the duplicate follows the original
	// immediately); exactly-once is not. The duplicate of a message
	// whose kind has a release func is a codec copy (wire.Copy).
	Dup float64
	// DelayMin/DelayMax bound the uniform per-message delivery delay,
	// counted from the Send. Delays are drawn per message but applied
	// by one forwarder per link, which delivers no message before the
	// one sent ahead of it: a link is never reordered with itself, and
	// its messages' delays overlap rather than add up. Delay reorders
	// deliveries only across links (and across connections), like real
	// queueing would.
	DelayMin, DelayMax time.Duration
}

// active reports whether the profile injects anything.
func (f Faults) active() bool { return f.Drop > 0 || f.Dup > 0 || f.DelayMax > 0 }

// ChaosStats counts injected faults, in messages (Killed in
// connections).
type ChaosStats struct {
	Dropped    int64 // messages discarded
	Duplicated int64 // messages delivered a second time
	Delayed    int64 // messages held by a drawn delay
	Killed     int64 // connections forcibly closed via AbortConns
}

// Chaos wraps a Transport with deterministic, seeded fault injection:
// per-link drop/duplicate/delay, directed partitions (a→b severed while
// b→a still flows) and connection kills. It is middleware over the one
// Send method, keyed by the whole Link, so it slots in anywhere a Mem
// or TCP endpoint does, at any shard count: each (shard, from, to) link
// has its own fault decisions, queue and forwarder.
//
// With no fault ever armed, Chaos is a pure passthrough: every Send
// delegates directly, byte-identical, which is what lets the
// conformance suite run against a wrapped fabric unchanged. Arming any
// fault (Apply, Partition) permanently routes traffic through one
// FIFO queue per link, each drained by its own forwarder goroutine —
// the structure that keeps per-link FIFO intact while faults reorder
// traffic across links. Arm before the link carries traffic; arming
// concurrently with in-flight Sends on the same link can reorder that
// instant's messages.
//
// Determinism: every fault decision is drawn from a per-link RNG seeded
// from (seed, link) in per-link send order, so a single-threaded driver
// replays a schedule exactly; Trace digests the decisions for
// byte-identical comparison. Under concurrent senders the decision
// sequence per link still depends only on that link's send order.
type Chaos struct {
	inner Transport
	seed  int64
	clk   sim.Clock // Configure sets it, before any traffic

	armed atomic.Bool

	mu    sync.RWMutex
	def   Faults
	links map[Link]*chaosLink

	nDropped    atomic.Int64
	nDuplicated atomic.Int64
	nDelayed    atomic.Int64
	nKilled     atomic.Int64

	closeMu   sync.Mutex
	closed    chan struct{}
	wg        sync.WaitGroup
	killEvery time.Duration // Apply's kill period, until Configure starts the killer
}

// chaosItem is one queued delivery: a message and, when a delay was
// drawn, the instant it is due.
type chaosItem struct {
	m   network.Message
	due sim.Time
}

// chaosLink is one link's fault pipeline: a FIFO queue, a forwarder
// goroutine, a partition flag, and the link's decision RNG plus the
// running record of its draws — a count and an FNV-1a digest, so the
// record stays a fixed size however long the link lives.
type chaosLink struct {
	mu        sync.Mutex
	cond      sync.Cond
	queue     []chaosItem
	severed   bool
	closed    bool
	rng       *rand.Rand
	decisions uint64
	digest    uint64
}

// Trace decision actions.
const (
	chaosDeliver = 0
	chaosDrop    = 1
	chaosDup     = 2
)

// The 64-bit FNV-1a parameters the decision digest uses.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewChaos wraps inner with fault injection drawn from seed. The
// wrapper owns inner: Close closes it.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner:  inner,
		seed:   seed,
		links:  make(map[Link]*chaosLink),
		closed: make(chan struct{}),
	}
}

// StopFaults ends the fault window: the fault profile is zeroed and
// every partition healed, so all queued traffic drains and subsequent
// sends pass undisturbed (still through the FIFO pipeline, which keeps
// ordering consistent). Delays already drawn for queued messages still
// apply — the window is fully over once they elapse, at most DelayMax
// later.
func (c *Chaos) StopFaults() {
	c.mu.Lock()
	c.def = Faults{}
	links := make([]*chaosLink, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		l.severed = false
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Partition severs the directed link k: messages queue (FIFO) and
// deliver only after Heal. The reverse link is untouched — a directed
// partition, the asymmetric failure a bidirectional "cut" model cannot
// express — and so are the same node pair's links in other shards.
// Arms the fault pipeline.
func (c *Chaos) Partition(k Link) {
	c.armed.Store(true)
	l := c.link(k)
	if l == nil {
		return
	}
	l.mu.Lock()
	l.severed = true
	l.mu.Unlock()
}

// Heal reopens the directed link k; everything queued while it was
// severed delivers in order.
func (c *Chaos) Heal(k Link) {
	c.mu.RLock()
	l := c.links[k]
	c.mu.RUnlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	l.severed = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// AbortConns implements Transport: it forcibly closes every live
// connection of the inner transport and counts the kills among the
// injected faults; zero when the inner fabric has no connections to
// kill (Mem). The frames queued or in flight on a killed connection are
// lost; the next send to that peer redials.
func (c *Chaos) AbortConns() int {
	n := c.inner.AbortConns()
	c.nKilled.Add(int64(n))
	return n
}

// ChaosStats snapshots the injected-fault counters.
func (c *Chaos) ChaosStats() ChaosStats {
	return ChaosStats{
		Dropped:    c.nDropped.Load(),
		Duplicated: c.nDuplicated.Load(),
		Delayed:    c.nDelayed.Load(),
		Killed:     c.nKilled.Load(),
	}
}

// N implements Transport.
func (c *Chaos) N() int { return c.inner.N() }

// Hosts implements Transport.
func (c *Chaos) Hosts(id network.NodeID) bool { return c.inner.Hosts(id) }

// Configure implements Transport by forwarding, and starts the
// connection killer Apply asked for on the announced clock.
func (c *Chaos) Configure(cfg Config, deliver Handler) {
	c.clk = cfg.clock()
	c.inner.Configure(cfg, deliver)
	if d := c.killEvery; d > 0 {
		t := c.clk.NewTimer(d)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				select {
				case <-t.C:
					c.AbortConns()
					t.Reset(d)
				case <-c.closed:
					t.Stop()
					return
				}
			}
		}()
	}
}

// Send implements Transport: one message is one fault decision —
// dropped, duplicated, or delivered after its drawn delay.
func (c *Chaos) Send(k Link, m network.Message) {
	if c.clk == nil {
		panic("transport: Send before Configure")
	}
	if !c.armed.Load() {
		c.inner.Send(k, m)
		return
	}
	c.dispatch(k, m)
}

// dispatch draws the link's next fault decision for m and enqueues it
// (once, twice, or not at all).
func (c *Chaos) dispatch(k Link, m network.Message) {
	select {
	case <-c.closed:
		return
	default:
	}
	l := c.link(k)
	if l == nil {
		return // closed
	}
	c.mu.RLock()
	f := c.def
	c.mu.RUnlock()
	l.mu.Lock()
	action, delay := l.decide(f)
	if action == chaosDrop {
		l.mu.Unlock()
		c.nDropped.Add(1)
		return
	}
	it := chaosItem{m: m}
	if delay > 0 {
		c.nDelayed.Add(1)
		it.due = c.clk.Now() + sim.Time(delay)
	}
	l.queue = append(l.queue, it)
	if action == chaosDup {
		c.nDuplicated.Add(1)
		// A fabric may release what it encodes or keep what it
		// delivers: it is never handed one such record twice.
		if wire.Releasable(m) {
			var err error
			if it.m, err = wire.Copy(m); err != nil {
				panic(fmt.Sprintf("transport: chaos duplicate of %s: %v", m.Kind(), err))
			}
		}
		l.queue = append(l.queue, it)
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// decide draws one fault decision from the link's RNG and folds it into
// the link's record (l.mu held): the action byte, then the delay in
// nanoseconds as a uvarint, into the digest. The draw sequence depends
// only on the fault profile and the link's send order, which is what
// makes a seeded schedule replay.
func (l *chaosLink) decide(f Faults) (action byte, delay time.Duration) {
	if f.Drop > 0 && l.rng.Float64() < f.Drop {
		action = chaosDrop
	} else if f.Dup > 0 && l.rng.Float64() < f.Dup {
		action = chaosDup
	}
	if action != chaosDrop && f.DelayMax > 0 {
		delay = f.DelayMin
		if span := f.DelayMax - f.DelayMin; span > 0 {
			delay += time.Duration(l.rng.Int63n(int64(span) + 1))
		}
	}
	var rec [1 + binary.MaxVarintLen64]byte
	rec[0] = action
	n := 1 + binary.PutUvarint(rec[1:], uint64(delay))
	for _, b := range rec[:n] {
		l.digest ^= uint64(b)
		l.digest *= fnvPrime64
	}
	l.decisions++
	return action, delay
}

// link returns (creating on first use) the fault pipeline of one link,
// or nil when the wrapper is closed.
func (c *Chaos) link(k Link) *chaosLink {
	c.mu.RLock()
	l, ok := c.links[k]
	c.mu.RUnlock()
	if ok {
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok = c.links[k]; ok {
		return l
	}
	select {
	case <-c.closed:
		return nil
	default:
	}
	l = &chaosLink{rng: rand.New(rand.NewSource(linkSeed(c.seed, k))), digest: fnvOffset64}
	l.cond.L = &l.mu
	c.links[k] = l
	c.wg.Add(1)
	go c.forward(k, l)
	return l
}

// linkSeed derives one link's RNG seed from the schedule seed and the
// link — distinct per link, stable across runs. The shard term vanishes
// for shard 0, so a flat cluster replays the schedules recorded before
// links carried a shard.
func linkSeed(seed int64, k Link) int64 {
	return seed ^ (int64(k.From)+1)*1_000_003 ^ (int64(k.To)+1)*7_919_999 ^ int64(k.Shard)*15_485_863
}

// forward drains one link's queue in FIFO order: wait out the severed
// flag, then the item's due instant, then deliver through the inner
// transport. One forwarder per link is what preserves per-link FIFO
// while faults reorder across links.
func (c *Chaos) forward(k Link, l *chaosLink) {
	defer c.wg.Done()
	for {
		l.mu.Lock()
		for (len(l.queue) == 0 || l.severed) && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.queue = nil
			l.mu.Unlock()
			return
		}
		it := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		if wait := time.Duration(it.due - c.clk.Now()); wait > 0 {
			// A fresh timer per delayed item: re-arming one timer for
			// every item saves its allocations, but on a 2-CPU host it
			// read 22 % more lossy acquire p50, 10 of 10 pairs worse.
			t := c.clk.NewTimer(wait)
			select {
			case <-t.C:
			case <-c.closed:
				t.Stop()
				return
			}
		}
		c.inner.Send(k, it.m)
	}
}

// Trace serializes every link's decision record: links sorted by
// (shard, from, to), each as from, to, then the number of decisions
// drawn and their digest, both big-endian 64-bit — a fixed size per
// link however many messages it carried. A link of shard s > 0 opens
// with the wire's shard tag (from is never negative, so the tag is
// unambiguous). Two runs with the same seed, fault schedule, and
// per-link send order produce identical bytes — the replay check the
// chaos tier pins.
func (c *Chaos) Trace() []byte {
	c.mu.RLock()
	keys := make([]Link, 0, len(c.links))
	for k := range c.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	var out []byte
	for _, k := range keys {
		l := c.links[k]
		l.mu.Lock()
		decisions, digest := l.decisions, l.digest
		l.mu.Unlock()
		out = wire.AppendShardTag(out, k.Shard)
		out = binary.AppendVarint(out, int64(k.From))
		out = binary.AppendVarint(out, int64(k.To))
		out = binary.BigEndian.AppendUint64(out, decisions)
		out = binary.BigEndian.AppendUint64(out, digest)
	}
	c.mu.RUnlock()
	return out
}

// Close implements Transport: stops every forwarder (undelivered queued
// items are dropped, like frames on a closing socket) and closes the
// inner transport. Idempotent.
func (c *Chaos) Close() error {
	c.closeMu.Lock()
	select {
	case <-c.closed:
		c.closeMu.Unlock()
		return nil
	default:
	}
	close(c.closed)
	c.closeMu.Unlock()
	c.mu.RLock()
	links := make([]*chaosLink, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.mu.RUnlock()
	for _, l := range links {
		l.mu.Lock()
		l.closed = true
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	// Inner first, then the join: a pump inside inner.Send to a peer
	// that is already gone is released by the inner Close alone (see
	// Reliable.Close).
	err := c.inner.Close()
	c.wg.Wait()
	return err
}

// Spec is a serializable chaos schedule: the seed plus the default
// fault profile and the connection-kill period. Its one textual form
// (String/ParseSpec — what mrallocd prints and its -chaos-spec flag
// accepts) lets one run's schedule replay elsewhere: same spec + same
// per-link send order = same fault decisions.
type Spec struct {
	Seed int64
	Faults
	// KillEvery, when positive, kills every live connection of the
	// wrapped transport at this period.
	KillEvery time.Duration
}

// String renders the spec as comma-separated key=value pairs, e.g.
//
//	seed=7,drop=0.02,dup=0.02,delay=100us..1ms,kill-every=2s
//
// A key at its zero value is left out (the zero Spec prints as "").
// Probabilities print in the shortest form that parses back to the
// same bits, durations exactly, so ParseSpec(s.String()) == s.
func (s Spec) String() string {
	var kv []string
	if s.Seed != 0 {
		kv = append(kv, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	if s.Drop != 0 {
		kv = append(kv, "drop="+strconv.FormatFloat(s.Drop, 'g', -1, 64))
	}
	if s.Dup != 0 {
		kv = append(kv, "dup="+strconv.FormatFloat(s.Dup, 'g', -1, 64))
	}
	if s.DelayMin != 0 || s.DelayMax != 0 {
		kv = append(kv, "delay="+specDuration(s.DelayMin)+".."+specDuration(s.DelayMax))
	}
	if s.KillEvery != 0 {
		kv = append(kv, "kill-every="+specDuration(s.KillEvery))
	}
	return strings.Join(kv, ",")
}

// specDuration is Duration.String with the ASCII spelling of µs, so a
// printed spec pastes into any shell.
func specDuration(d time.Duration) string { return strings.Replace(d.String(), "µ", "u", 1) }

// ParseSpec parses and validates the form String prints. Keys may come
// in any order, each at most once; an absent key keeps its zero value.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if text == "" {
		return s, nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("transport: chaos spec: %q is not key=value", kv)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("transport: chaos spec: %s given twice", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			s.Drop, err = parseProbability(val)
		case "dup":
			s.Dup, err = parseProbability(val)
		case "delay":
			lo, hi, ok := strings.Cut(val, "..")
			if !ok {
				return Spec{}, fmt.Errorf("transport: chaos spec: delay %q is not min..max", val)
			}
			if s.DelayMin, err = parseSpecDuration(lo); err == nil {
				s.DelayMax, err = parseSpecDuration(hi)
			}
			if err == nil && s.DelayMax < s.DelayMin {
				err = fmt.Errorf("max %v below min %v", s.DelayMax, s.DelayMin)
			}
		case "kill-every":
			s.KillEvery, err = parseSpecDuration(val)
		default:
			return Spec{}, fmt.Errorf("transport: chaos spec: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("transport: chaos spec: %s: %w", key, err)
		}
	}
	return s, nil
}

func parseProbability(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(p) || math.Signbit(p) || p > 1 {
		return 0, fmt.Errorf("%v outside [0,1]", p)
	}
	return p, nil
}

func parseSpecDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

// Apply arms the fault pipeline with the spec's fault profile on every
// link, unless the profile injects nothing. A KillEvery killer starts
// on Configure, on the announced clock.
func (c *Chaos) Apply(s Spec) {
	if s.Faults.active() {
		c.mu.Lock()
		c.def = s.Faults
		c.mu.Unlock()
		c.armed.Store(true)
	}
	c.killEvery = s.KillEvery
}
