// Reliable delivery over a lossy fabric: a Transport wrapper that
// sequence-numbers every frame per link, acknowledges cumulatively,
// retransmits on a jittered timer, and deduplicates at the receiver —
// the go-back-N discipline that upgrades the chaos fabric's "safety
// only" caveat to safety and liveness. All of its state is keyed by the
// whole Link, so every (shard, from, to) channel has its own sequence
// space and retransmit buffer and a sharded cluster needs nothing
// extra.
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
//   - Acks are never sent inline from the receive handler. Over the
//     zero-latency Mem fabric Send is a synchronous handler call, so
//     an inline ack would re-enter the link locks the delivery holds
//     and deadlock. A background acker goroutine coalesces and sends
//     cumulative acks instead.
//   - The wrapper counts no message kinds: the caller counts what it
//     sent, and the Rel.* envelopes and acks that carry it are recovery
//     traffic, accounted in RelStats.
package transport

import (
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
// rearm), so links that lost frames together do not retransmit in
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

// relSend is the send half of one link: frames outstanding toward one
// destination.
type relSend struct {
	mu      sync.Mutex
	nextSeq uint64 // next sequence number to assign (first frame is 1)
	// unacked holds the outstanding relData envelopes, oldest first,
	// already boxed: a fresh send and a retransmission both hand the
	// inner fabric an envelope as it stands.
	unacked []network.Message
	// attempt counts consecutive retransmission rounds without ack
	// progress; deadline is when the next round fires, drawn from rng,
	// which is seeded from the link so a schedule replays.
	attempt  int
	deadline sim.Time
	rng      rand.PCG
}

// relRecv is the receive half of one link.
type relRecv struct {
	mu       sync.Mutex
	expected uint64 // next sequence number to deliver (starts at 1)
	ackDue   bool
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
	send  map[Link]*relSend
	recv  map[Link]*relRecv
	relMu sync.Mutex
	rel   RelStats

	ackKick chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	tick    sim.Timer // the retransmitter's, armed from Configure on
	armMu   sync.Mutex
	armedAt sim.Time // the deadline tick is armed for; 0: none
}

// NewReliable wraps inner in the ack/retransmit discipline. Both
// endpoints of every link must be wrapped (the envelope kinds are not
// understood by a bare endpoint's protocol handlers). The wrapper owns
// inner and closes it on Close.
func NewReliable(inner Transport) *Reliable {
	return &Reliable{
		inner:   inner,
		base:    DefaultRetransmitBase,
		max:     DefaultRetransmitMax,
		send:    make(map[Link]*relSend),
		recv:    make(map[Link]*relRecv),
		ackKick: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
}

// Configure implements Transport: the layout goes down unchanged, with
// broken writes marked recoverable — frames lost with a dead connection
// are what the retransmitter, started here on the clock, repairs — and
// the unwrapping onRecv as the inner handler.
func (r *Reliable) Configure(cfg Config, deliver Handler) {
	configure(&r.deliver, deliver)
	r.clk = cfg.clock()
	r.tick = r.clk.NewTimer(0) // the first scan runs at once
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

func (r *Reliable) sendLink(k Link) *relSend {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.send[k]
	if l == nil {
		l = &relSend{nextSeq: 1, rng: *rand.NewPCG(uint64(linkSeed(0, k)), 0)}
		r.send[k] = l
	}
	return l
}

func (r *Reliable) recvLink(k Link) *relRecv {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.recv[k]
	if l == nil {
		l = &relRecv{expected: 1}
		r.recv[k] = l
	}
	return l
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
	l := r.sendLink(k)
	// The link lock is held across the inner send so envelope sequence
	// numbers hit the wire in order on a healthy link (go-back-N
	// tolerates reordering, but not wasting it on the common case).
	l.mu.Lock()
	defer l.mu.Unlock()
	var env network.Message = relData{Seq: l.nextSeq, M: m}
	l.nextSeq++
	l.unacked = append(l.unacked, env)
	if l.deadline == 0 {
		r.rearm(l, r.clk.Now())
		r.armBy(l.deadline)
	}
	r.inner.Send(k, env)
}

// onRecv unwraps an inner delivery on link k (k.To is hosted here).
func (r *Reliable) onRecv(k Link, m network.Message) {
	switch env := m.(type) {
	case relData:
		l := r.recvLink(k)
		l.mu.Lock()
		switch {
		case env.Seq == l.expected:
			// Deliver under the link lock: a redialed connection's frames
			// may arrive while the dead one's tail is still being
			// delivered, and a frame the sequence check passed must
			// reach the handler before the next one can pass it. The
			// handler must therefore not send on this link.
			l.expected++
			l.ackDue = true
			r.deliver(k, env.M)
			l.mu.Unlock()
			r.kickAcker()
			return
		case env.Seq < l.expected:
			// Duplicate (chaos Dup, or a retransmission that raced its
			// own ack): drop the payload unread — on an in-process
			// fabric env.M is the very record the first copy delivered,
			// and its receiver may be refilling it — but re-ack so a
			// sender whose ack was lost still advances.
			l.ackDue = true
			l.mu.Unlock()
			r.addRel(func(s *RelStats) { s.DupsDropped++ })
			r.kickAcker()
			return
		default:
			// Gap: an earlier frame was lost. Discard and re-ack the
			// prefix; the sender's timer refills the hole in order.
			l.ackDue = true
			l.mu.Unlock()
			r.addRel(func(s *RelStats) { s.Gaps++ })
			r.kickAcker()
			return
		}
	case relAck:
		// Ack for data we sent the other way: the link is the reverse.
		l := r.sendLink(k.reverse())
		l.mu.Lock()
		n := 0
		for n < len(l.unacked) && l.unacked[n].(relData).Seq <= env.Cum {
			n++
		}
		if n > 0 {
			rest := l.unacked[n:]
			copy(l.unacked, rest)
			for i := len(rest); i < len(l.unacked); i++ {
				l.unacked[i] = nil
			}
			l.unacked = l.unacked[:len(rest)]
			// Progress: restart the backoff schedule. A deadline that
			// moves later, or goes with the last frame, needs no wake:
			// the armed timer fires once early and the scan re-arms or
			// stops it. Only a reset backoff can bring it nearer.
			l.attempt = 0
			if len(l.unacked) == 0 {
				l.deadline = 0
			} else {
				r.rearm(l, r.clk.Now())
				r.armBy(l.deadline)
			}
		}
		l.mu.Unlock()
		if n > 0 {
			r.addRel(func(s *RelStats) { s.Acked += int64(n) })
		}
	default:
		// A frame from an unwrapped peer (misconfiguration): deliver it
		// rather than wedge — safety degrades to the inner fabric's.
		r.deliver(k, m)
	}
}

// reverse is the link acks for k's data travel on.
func (k Link) reverse() Link { return Link{Shard: k.Shard, From: k.To, To: k.From} }

func (r *Reliable) kickAcker() {
	select {
	case r.ackKick <- struct{}{}:
	default:
	}
}

// acker drains pending cumulative acks in the background (never inline
// from a receive handler — see the package comment).
func (r *Reliable) acker() {
	defer r.wg.Done()
	var links []Link
	for {
		select {
		case <-r.stop:
			return
		case <-r.ackKick:
		}
		r.mu.Lock()
		links = slices.AppendSeq(links[:0], maps.Keys(r.recv))
		r.mu.Unlock()
		for _, k := range links {
			l := r.recvLink(k)
			l.mu.Lock()
			due, cum := l.ackDue, l.expected-1
			l.ackDue = false
			l.mu.Unlock()
			if !due || r.closed.Load() {
				continue
			}
			// The ack travels the reverse direction: receiver back to
			// the data's sender.
			r.inner.Send(k.reverse(), relAck{Cum: cum})
			r.addRel(func(s *RelStats) { s.AcksSent++ })
		}
	}
}

// retransmitter re-sends every unacked frame of any link whose
// deadline has passed (go-back-N), then arms its timer for the earliest
// deadline left, or not at all while every link is acknowledged. A Send
// to an idle link, or an ack that resets a backoff, arms it sooner
// itself (armBy).
func (r *Reliable) retransmitter() {
	defer r.wg.Done()
	var links []Link
	for {
		select {
		case <-r.stop:
			r.tick.Stop()
			return
		case <-r.tick.C:
		}
		r.armMu.Lock()
		r.armedAt = 0 // a Send during the scan arms for its own deadline
		r.armMu.Unlock()
		now := r.clk.Now()
		r.mu.Lock()
		links = slices.AppendSeq(links[:0], maps.Keys(r.send))
		r.mu.Unlock()
		var next sim.Time // the earliest deadline left; 0: none
		for _, k := range links {
			l := r.sendLink(k)
			l.mu.Lock()
			if len(l.unacked) == 0 || l.deadline == 0 {
				l.mu.Unlock()
				continue
			}
			if now >= l.deadline {
				l.attempt++
				r.rearm(l, now)
				// Hold the link lock across the re-sends so a concurrent
				// fresh Send cannot interleave a higher sequence number
				// into the middle of the retransmitted window. They are
				// counted first, so a frame they deliver finds them
				// counted.
				if r.closed.Load() {
					l.mu.Unlock()
					return
				}
				resent := len(l.unacked)
				r.addRel(func(s *RelStats) { s.Retransmits += int64(resent) })
				for _, env := range l.unacked {
					r.inner.Send(k, env)
				}
			}
			if next == 0 || l.deadline < next {
				next = l.deadline
			}
			l.mu.Unlock()
		}
		r.armMu.Lock()
		if r.armedAt != 0 && (next == 0 || r.armedAt < next) {
			next = r.armedAt
		}
		if r.armedAt = next; next != 0 {
			r.tick.Reset(time.Duration(next - r.clk.Now()))
		} else {
			r.tick.Stop()
		}
		r.armMu.Unlock()
	}
}

// armBy arms the retransmitter's timer for deadline unless it is armed
// for an earlier one.
func (r *Reliable) armBy(deadline sim.Time) {
	r.armMu.Lock()
	defer r.armMu.Unlock()
	if r.armedAt == 0 || deadline < r.armedAt {
		r.armedAt = deadline
		r.tick.Reset(time.Duration(deadline - r.clk.Now()))
	}
}

// rearm sets l's next deadline (l.mu held) with equal jitter after
// l.attempt fruitless retransmission rounds: uniform in [d/2, d] from
// now, with d = min(max, base·2ⁿ).
func (r *Reliable) rearm(l *relSend, now sim.Time) {
	d := r.base
	for i := 0; i < l.attempt && d < r.max; i++ {
		d *= 2
	}
	d = min(d, r.max)
	l.deadline = now + sim.Time(d/2) + sim.Time(l.rng.Uint64()%uint64(d/2+1))
}

func (r *Reliable) addRel(f func(*RelStats)) {
	r.relMu.Lock()
	f(&r.rel)
	r.relMu.Unlock()
}

// RelStats snapshots the recovery layer's counters.
func (r *Reliable) RelStats() RelStats {
	r.relMu.Lock()
	defer r.relMu.Unlock()
	return r.rel
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
