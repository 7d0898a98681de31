// Reliable delivery over a lossy fabric: a Transport wrapper that
// sequence-numbers every frame per link, acknowledges cumulatively,
// retransmits on a jittered timer, and deduplicates at the receiver —
// the go-back-N discipline that upgrades the chaos fabric's "safety
// only" caveat to safety and liveness. Every (shard, from, to) link has
// its own sequence space and retransmit buffer, so a sharded cluster
// needs nothing extra.
//
// The rules are one plain value per link, relLink, with no lock,
// goroutine, timer or clock, so a test drives two of them through every
// schedule within a fault budget (TestExploreReliableLink). Around
// them, Reliable keeps one map of links, a lock per link half, an acker
// and a retransmitter. The retransmitter alone owns the one timer,
// armed for the earliest deadline of any link and not at all while
// every link is acknowledged; a Send or an ack that brings a deadline
// nearer kicks it, the way an arriving frame kicks the acker.
//
// The stack composes as live → Reliable → Chaos → TCP/Mem, so
// retransmitted frames re-traverse the fault injector like any other
// traffic: a retransmission can itself be dropped, delayed, or
// duplicated, and the discipline must (and does) converge anyway.
//
// Design notes, hard-won:
//
//   - Payloads are wrapped in a Rel.Data envelope whose nested message
//     is encoded statelessly (wire.Enc.Message): retransmission must
//     re-encode byte-identically and duplicate delivery must be
//     side-effect free, both of which per-stream delta caches would
//     break. Delta savings on wrapped links are deliberately forgone.
//   - Over the zero-latency Mem fabric Send is a synchronous handler
//     call, so one lock per link, or an ack sent from the receive
//     handler, would re-enter a lock the delivery holds and deadlock.
//     Hence the two locks, and the acker goroutine that coalesces and
//     sends cumulative acks, apart from the retransmitter so acks do
//     not queue behind a retransmission blocked on a stalled peer.
//   - The wrapper counts no message kinds: the caller counts what it
//     sent, and the Rel.* envelopes and acks that carry it are recovery
//     traffic, accounted in RelStats.
package transport

import (
	"cmp"
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/wire"
)

// relData is the sequenced envelope around one logical message.
type relData struct {
	Seq uint64
	M   network.Message
}

func (relData) Kind() string { return "Rel.Data" }

// relAck cumulatively acknowledges every sequence number ≤ Cum on the
// reverse of the link it travels (an ack from b to a covers a→b data).
type relAck struct {
	Cum uint64
}

func (relAck) Kind() string { return "Rel.Ack" }

func init() {
	wire.Register("Rel.Data",
		func(e *wire.Enc, m network.Message) {
			d := m.(relData)
			e.Uvarint(d.Seq)
			e.Message(d.M)
		},
		func(d *wire.Dec) network.Message {
			var out relData
			out.Seq = d.Uvarint()
			out.M = d.Message()
			return out
		})
	wire.Register("Rel.Ack",
		func(e *wire.Enc, m network.Message) {
			e.Uvarint(m.(relAck).Cum)
		},
		func(d *wire.Dec) network.Message {
			return relAck{Cum: d.Uvarint()}
		})
	// The data sample nests an ack so the corpus stays self-contained
	// in this package (no dependency on any protocol package's kinds).
	wire.RegisterSamples(
		relAck{Cum: 0},
		relAck{Cum: 1 << 40},
		relData{Seq: 3, M: relAck{Cum: 2}},
	)
}

// Retransmit timer defaults: the base must exceed a healthy link's
// round trip (loopback plus chaos delays of a few hundred µs) so acks
// usually win the race, and the cap bounds how long a healed link
// stays idle. Each round's delay is drawn with equal jitter (see
// backoff), so links that lost frames together do not retransmit in
// lockstep.
const (
	DefaultRetransmitBase = 10 * time.Millisecond
	DefaultRetransmitMax  = 250 * time.Millisecond
)

// RelStats counts the recovery layer's own work: these are the
// observability counters the chaos bench rows and the mrallocd shutdown
// summary surface.
type RelStats struct {
	// Retransmits counts data frames re-sent by the timer.
	Retransmits int64
	// Acked counts data frames confirmed delivered (cumulative-ack
	// progress on the send side).
	Acked int64
	// DupsDropped counts received data frames discarded as duplicates
	// (sequence number below the next expected one).
	DupsDropped int64
	// Gaps counts received data frames discarded as out-of-order
	// (sequence number above the next expected one — an earlier frame
	// was lost and go-back-N will refill the hole).
	Gaps int64
	// AcksSent counts Rel.Ack frames sent by the acker.
	AcksSent int64
}

// relLink is one link's go-back-N rules. Its send half runs on the
// endpoint hosting the link's From, its receive half (expected, ackDue)
// on the one hosting its To.
type relLink struct {
	base, max time.Duration // the backoff schedule (SetRetransmit)

	next uint64 // sequence number of the next send (the first is 1)
	// unacked holds the outstanding relData envelopes, oldest first,
	// already boxed: a fresh send and a retransmission both hand the
	// inner fabric an envelope as it stands.
	unacked []network.Message
	// attempt counts retransmission rounds since the last ack progress;
	// deadline is when the next round is due (0: nothing outstanding),
	// drawn from rng, which is seeded from the link so a schedule
	// replays.
	attempt  int
	deadline sim.Time
	rng      rand.PCG

	expected uint64 // sequence number of the next delivery (the first is 1)
	ackDue   bool   // a frame arrived since the last ack was taken
}

func newRelLink(k Link, base, max time.Duration) relLink {
	return relLink{base: base, max: max, next: 1, expected: 1, rng: *rand.NewPCG(uint64(linkSeed(0, k)), 0)}
}

// send numbers m and keeps its envelope until it is acknowledged.
// nearer reports that the deadline moved nearer (an idle link starts
// one), so the retransmitter's timer may be armed too late.
func (l *relLink) send(m network.Message, now sim.Time) (env network.Message, nearer bool) {
	env = relData{Seq: l.next, M: m}
	l.next++
	l.unacked = append(l.unacked, env)
	if l.deadline == 0 {
		l.backoff(now)
		nearer = true
	}
	return env, nearer
}

// recv classifies the data frame seq against the next expected one: 0
// in order, to be delivered (recv moves past it); -1 a duplicate,
// delivered before; +1 a gap, an earlier frame was lost. Every frame
// makes an ack due: re-acking a duplicate advances a sender whose ack
// was lost, and re-acking the prefix on a gap lets the sender's timer
// refill the hole in order.
func (l *relLink) recv(seq uint64) int {
	l.ackDue = true
	c := cmp.Compare(seq, l.expected)
	if c == 0 {
		l.expected++
	}
	return c
}

// takeAck returns the cumulative ack, every frame delivered so far, and
// whether one is due.
func (l *relLink) takeAck() (cum uint64, due bool) {
	due, l.ackDue = l.ackDue, false
	return l.expected - 1, due
}

// ack trims the envelopes up to cum from the window and reports how
// many went. Progress restarts the backoff: the deadline goes with the
// last frame, or is drawn afresh from now, and nearer reports that it
// moved nearer.
func (l *relLink) ack(cum uint64, now sim.Time) (n int, nearer bool) {
	for n < len(l.unacked) && l.unacked[n].(relData).Seq <= cum {
		n++
	}
	if n == 0 {
		return 0, false
	}
	l.unacked = slices.Delete(l.unacked, 0, n)
	l.attempt = 0
	old := l.deadline
	if l.deadline = 0; len(l.unacked) > 0 {
		l.backoff(now)
	}
	return n, l.deadline != 0 && l.deadline < old
}

// due returns the whole window (go-back-N, oldest first) once now has
// reached the deadline, counting the fruitless round and drawing the
// next deadline; nil before.
func (l *relLink) due(now sim.Time) []network.Message {
	if l.deadline == 0 || now < l.deadline {
		return nil
	}
	l.attempt++
	l.backoff(now)
	return l.unacked
}

// backoff draws the next deadline with equal jitter after l.attempt
// fruitless rounds: uniform in [d/2, d] from now, with
// d = min(max, base·2ⁿ).
func (l *relLink) backoff(now sim.Time) {
	d := l.base
	for i := 0; i < l.attempt && d < l.max; i++ {
		d *= 2
	}
	d = min(d, l.max)
	l.deadline = now + sim.Time(d/2) + sim.Time(l.rng.Uint64()%uint64(d/2+1))
}

// relEntry is a link's rules with a lock per half: sendMu guards the
// send half of l, recvMu its receive half.
type relEntry struct {
	k              Link
	sendMu, recvMu sync.Mutex
	l              relLink
}

// Reliable wraps an inner Transport with per-link acked, retransmitted,
// deduplicated delivery. It owns the inner transport: closing the
// Reliable closes it. See the package comment on reliable.go for the
// design constraints.
type Reliable struct {
	inner Transport
	// Configure sets these once, before any traffic.
	deliver Handler
	clk     sim.Clock

	base, max time.Duration

	mu    sync.Mutex
	links map[Link]*relEntry

	retransmits, acked, dupsDropped, gaps, acksSent atomic.Int64

	ackKick, retxKick chan struct{}
	stop              chan struct{}
	wg                sync.WaitGroup
	closed            atomic.Bool
}

// NewReliable wraps inner in the ack/retransmit discipline. Both
// endpoints of every link must be wrapped (the envelope kinds are not
// understood by a bare endpoint's protocol handlers). The wrapper owns
// inner and closes it on Close.
func NewReliable(inner Transport) *Reliable {
	return &Reliable{
		inner:    inner,
		base:     DefaultRetransmitBase,
		max:      DefaultRetransmitMax,
		links:    make(map[Link]*relEntry),
		ackKick:  make(chan struct{}, 1),
		retxKick: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
}

// Configure implements Transport: the layout goes down unchanged, with
// broken writes marked recoverable — frames lost with a dead connection
// are what the retransmitter, started here on the clock, repairs — and
// the unwrapping onRecv as the inner handler.
func (r *Reliable) Configure(cfg Config, deliver Handler) {
	configure(&r.deliver, deliver)
	r.clk = cfg.clock()
	r.wg.Add(2)
	go r.acker()
	go r.retransmitter()
	cfg.LossRecovered = true
	r.inner.Configure(cfg, r.onRecv)
}

// SetRetransmit tunes the retransmission timer (equal jitter in
// [d/2, d], d = min(max, base·2ⁿ) after n fruitless rounds). Call
// before traffic; zero or negative values select the defaults.
func (r *Reliable) SetRetransmit(base, max time.Duration) {
	if base > 0 {
		r.base = base
	}
	if max > 0 {
		r.max = max
	}
}

// N reports the cluster size of the wrapped endpoint.
func (r *Reliable) N() int { return r.inner.N() }

// Hosts reports whether the wrapped endpoint hosts id.
func (r *Reliable) Hosts(id network.NodeID) bool { return r.inner.Hosts(id) }

func (r *Reliable) link(k Link) *relEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.links[k]
	if e == nil {
		e = &relEntry{k: k, l: newRelLink(k, r.base, r.max)}
		r.links[k] = e
	}
	return e
}

// snapshot refills links with every link the wrapper knows.
func (r *Reliable) snapshot(links []*relEntry) []*relEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.AppendSeq(links[:0], maps.Values(r.links))
}

// Send wraps m in a sequenced envelope and transmits it, retaining the
// envelope for retransmission until acknowledged.
func (r *Reliable) Send(k Link, m network.Message) {
	if r.deliver == nil {
		panic("transport: Send before Configure")
	}
	if r.closed.Load() {
		return
	}
	e := r.link(k)
	// The send half's lock is held across the inner send so envelope
	// sequence numbers hit the wire in order on a healthy link (go-back-N
	// tolerates reordering, but not wasting it on the common case).
	e.sendMu.Lock()
	env, nearer := e.l.send(m, r.clk.Now())
	r.inner.Send(k, env)
	e.sendMu.Unlock()
	if nearer {
		kick(r.retxKick)
	}
}

// onRecv unwraps an inner delivery on link k (k.To is hosted here). Every
// frame is a Rel.* envelope: a cluster built by internal/stack refuses,
// at the handshake, a peer that does not run the wrapper.
func (r *Reliable) onRecv(k Link, m network.Message) {
	switch env := m.(type) {
	case relData:
		e := r.link(k)
		e.recvMu.Lock()
		switch e.l.recv(env.Seq) {
		case 0:
			// Deliver under the receive half's lock: a redialed
			// connection's frames may arrive while the dead one's tail is
			// still being delivered, and a frame the sequence check passed
			// must reach the handler before the next one can pass it. The
			// handler must therefore not send on this link.
			r.deliver(k, env.M)
		case -1:
			// Drop the payload unread: on an in-process fabric env.M is
			// the very record the first copy delivered, and its receiver
			// may be refilling it.
			r.dupsDropped.Add(1)
		default:
			r.gaps.Add(1)
		}
		e.recvMu.Unlock()
		kick(r.ackKick)
	case relAck:
		// Ack for data we sent the other way: the link is the reverse.
		e := r.link(k.reverse())
		e.sendMu.Lock()
		n, nearer := e.l.ack(env.Cum, r.clk.Now())
		e.sendMu.Unlock()
		r.acked.Add(int64(n))
		if nearer {
			kick(r.retxKick)
		}
	}
}

// reverse is the link acks for k's data travel on.
func (k Link) reverse() Link { return Link{Shard: k.Shard, From: k.To, To: k.From} }

// kick wakes the goroutine that waits on c, unless a wake is pending.
func kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// acker drains pending cumulative acks in the background (never inline
// from a receive handler — see the package comment).
func (r *Reliable) acker() {
	defer r.wg.Done()
	var links []*relEntry
	for {
		select {
		case <-r.stop:
			return
		case <-r.ackKick:
		}
		links = r.snapshot(links)
		for _, e := range links {
			e.recvMu.Lock()
			cum, due := e.l.takeAck()
			e.recvMu.Unlock()
			if due && !r.closed.Load() {
				r.inner.Send(e.k.reverse(), relAck{Cum: cum})
				r.acksSent.Add(1)
			}
		}
	}
}

// retransmitter owns the timer. Woken by it or by a kick, it re-sends
// the window of every link whose deadline has passed, then arms the
// timer for the earliest deadline left, or stops it while every link is
// acknowledged.
func (r *Reliable) retransmitter() {
	defer r.wg.Done()
	tick := r.clk.NewTimer(0) // the first scan runs at once
	defer tick.Stop()
	var links []*relEntry
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		case <-r.retxKick:
		}
		now := r.clk.Now()
		var next sim.Time // the earliest deadline left; 0: none
		links = r.snapshot(links)
		for _, e := range links {
			// The send half's lock is held across the re-sends so a Send
			// cannot interleave a higher sequence number into the window.
			// A re-send is counted before it goes, as it may deliver.
			e.sendMu.Lock()
			if resend := e.l.due(now); len(resend) > 0 && !r.closed.Load() {
				r.retransmits.Add(int64(len(resend)))
				for _, env := range resend {
					r.inner.Send(e.k, env)
				}
			}
			if d := e.l.deadline; d != 0 && (next == 0 || d < next) {
				next = d
			}
			e.sendMu.Unlock()
		}
		if next != 0 {
			tick.ResetAt(next)
		} else {
			tick.Stop()
		}
	}
}

// RelStats snapshots the recovery layer's counters.
func (r *Reliable) RelStats() RelStats {
	return RelStats{
		Retransmits: r.retransmits.Load(),
		Acked:       r.acked.Load(),
		DupsDropped: r.dupsDropped.Load(),
		Gaps:        r.gaps.Load(),
		AcksSent:    r.acksSent.Load(),
	}
}

// AbortConns implements Transport by forwarding; frames lost to the
// abort are exactly what the retransmission timer repairs.
func (r *Reliable) AbortConns() int { return r.inner.AbortConns() }

// Close stops the recovery goroutines and closes the inner transport.
// Idempotent; unacked frames are abandoned (the cluster is going away).
//
// The inner transport closes before the goroutines are joined, not
// after: the acker or the retransmitter may be inside inner.Send, and a
// socket fabric's Send to a peer that has already shut down sits in its
// dial retry loop, which only the fabric's own Close cuts short. Joined
// first, that goroutine would hold Close for the whole dial window and
// then leave the fabric a dial failure to report. A Send that arrives
// after the inner Close is dropped by the fabric.
func (r *Reliable) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.stop)
	err := r.inner.Close()
	r.wg.Wait()
	return err
}
