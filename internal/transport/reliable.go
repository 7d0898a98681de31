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
//     an inline ack on a self-link would re-enter the binder slot lock
//     and deadlock. A background acker goroutine coalesces and sends
//     cumulative acks instead.
//   - The wrapper counts no message kinds: the caller counts what it
//     sent, and the Rel.* envelopes and acks that carry it are recovery
//     traffic, accounted in RelStats.
package transport

import (
	"math/rand"
	"sync"
	"time"

	"mralloc/internal/network"
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
// jitter), so links that lost frames together do not retransmit in
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
	// progress; deadline is when the next round fires.
	attempt  int
	deadline time.Time
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
	bind  *binder
	bound int // shards whose hosted nodes are bound on inner

	base, max time.Duration
	rngMu     sync.Mutex
	rng       *rand.Rand

	mu    sync.Mutex
	send  map[Link]*relSend
	recv  map[Link]*relRecv
	relMu sync.Mutex
	rel   RelStats

	ackKick chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewReliable wraps inner in the ack/retransmit discipline. Both
// endpoints of every link must be wrapped (the envelope kinds are not
// understood by a bare endpoint's protocol handlers). The wrapper owns
// inner and closes it on Close.
func NewReliable(inner Transport) *Reliable {
	r := &Reliable{
		inner:   inner,
		bind:    newBinder(inner.N()),
		base:    DefaultRetransmitBase,
		max:     DefaultRetransmitMax,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		send:    make(map[Link]*relSend),
		recv:    make(map[Link]*relRecv),
		ackKick: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	r.bindShards(1)
	r.wg.Add(2)
	go r.acker()
	go r.retransmitter()
	return r
}

// Configure implements Transport: the layout goes down unchanged, with
// broken writes marked recoverable — frames lost with a dead connection
// are exactly what the retransmission timer repairs.
func (r *Reliable) Configure(cfg Config) {
	cfg.LossRecovered = true
	r.inner.Configure(cfg)
	r.bindShards(len(cfg.Shards))
}

// bindShards installs the unwrapping handler of every hosted node in
// each shard below g not bound yet — shard 0 at construction, the rest
// once the layout is announced (both before traffic, from the goroutine
// assembling the stack, so bound needs no lock). The wrapper's own
// binder buffers traffic that beats the caller's Bind.
func (r *Reliable) bindShards(g int) {
	r.bind.grow(g)
	for ; r.bound < g; r.bound++ {
		for id := 0; id < r.inner.N(); id++ {
			shard, to := r.bound, network.NodeID(id)
			if !r.inner.Hosts(to) {
				continue
			}
			r.inner.Bind(shard, to, func(from network.NodeID, m network.Message) {
				r.onRecv(Link{Shard: shard, From: from, To: to}, m)
			})
		}
	}
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

// Bind installs the delivery handler for a hosted node; deliveries
// that arrived first are flushed to it in order.
func (r *Reliable) Bind(shard int, id network.NodeID, h Handler) {
	r.bind.mustSlot(shard, id).bind(h)
}

func (r *Reliable) sendLink(k Link) *relSend {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.send[k]
	if l == nil {
		l = &relSend{nextSeq: 1}
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
	if r.isClosed() {
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
	if l.deadline.IsZero() {
		l.deadline = time.Now().Add(r.jitter(l.attempt))
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
			l.expected++
			l.ackDue = true
			l.mu.Unlock()
			// Deliver while no link lock is held: the caller's handler
			// may send (live's does not, but the contract allows it).
			r.bind.slot(k.Shard, k.To).deliver(k.From, env.M)
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
			// Progress: restart the backoff schedule.
			l.attempt = 0
			if len(l.unacked) == 0 {
				l.deadline = time.Time{}
			} else {
				l.deadline = time.Now().Add(r.jitter(0))
			}
		}
		l.mu.Unlock()
		if n > 0 {
			r.addRel(func(s *RelStats) { s.Acked += int64(n) })
		}
	default:
		// A frame from an unwrapped peer (misconfiguration): deliver it
		// rather than wedge — safety degrades to the inner fabric's.
		r.bind.slot(k.Shard, k.To).deliver(k.From, m)
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
	for {
		select {
		case <-r.stop:
			return
		case <-r.ackKick:
		}
		r.mu.Lock()
		links := make([]Link, 0, len(r.recv))
		for k := range r.recv {
			links = append(links, k)
		}
		r.mu.Unlock()
		for _, k := range links {
			l := r.recvLink(k)
			l.mu.Lock()
			due, cum := l.ackDue, l.expected-1
			l.ackDue = false
			l.mu.Unlock()
			if !due || r.isClosed() {
				continue
			}
			// The ack travels the reverse direction: receiver back to
			// the data's sender.
			r.inner.Send(k.reverse(), relAck{Cum: cum})
			r.addRel(func(s *RelStats) { s.AcksSent++ })
		}
	}
}

// retransmitter periodically rescans send links and re-sends every
// unacked frame of any link whose timer expired (go-back-N).
func (r *Reliable) retransmitter() {
	defer r.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		r.mu.Lock()
		links := make([]Link, 0, len(r.send))
		for k := range r.send {
			links = append(links, k)
		}
		r.mu.Unlock()
		for _, k := range links {
			l := r.sendLink(k)
			l.mu.Lock()
			if len(l.unacked) == 0 || l.deadline.IsZero() || now.Before(l.deadline) {
				l.mu.Unlock()
				continue
			}
			l.attempt++
			l.deadline = now.Add(r.jitter(l.attempt))
			// Hold the link lock across the re-sends so a concurrent
			// fresh Send cannot interleave a higher sequence number
			// into the middle of the retransmitted window.
			if r.isClosed() {
				l.mu.Unlock()
				return
			}
			resent := len(l.unacked)
			for _, env := range l.unacked {
				r.inner.Send(k, env)
			}
			l.mu.Unlock()
			r.addRel(func(s *RelStats) { s.Retransmits += int64(resent) })
		}
	}
}

// jitter computes the equal-jitter deadline delay after `attempt`
// fruitless retransmission rounds: uniform in [d/2, d] with
// d = min(max, base·2ⁿ).
func (r *Reliable) jitter(attempt int) time.Duration {
	d := r.base
	for i := 0; i < attempt && d < r.max; i++ {
		d *= 2
	}
	if d > r.max {
		d = r.max
	}
	r.rngMu.Lock()
	f := r.rng.Float64()
	r.rngMu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
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

func (r *Reliable) isClosed() bool {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	return r.closed
}

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
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return nil
	}
	r.closed = true
	r.closeMu.Unlock()
	close(r.stop)
	err := r.inner.Close()
	r.wg.Wait()
	return err
}
