package transport

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"mralloc/internal/sim"
)

// probe is the i-th message a link world sends.
type probe int

func (probe) Kind() string { return "Test.Probe" }

// linkWorld is one state of two relLink ends: a sender's send half and
// a receiver's receive half, the frames in flight each way, and the
// budgets left to the search. A frame in flight may be delivered
// whatever else is, so each direction is a multiset, kept sorted.
type linkWorld struct {
	snd, rcv  relLink
	data      []relData // data frames in flight, sender to receiver, by sequence number
	acks      []uint64  // cumulative acks in flight, receiver to sender, sorted
	now       sim.Time
	sent      int // messages handed to the sender: probes 1..sent
	delivered int // messages the receiver delivered: probes 1..delivered
	faults    int // drops and duplicates left
	ticks     int // retransmit ticks left
}

// linkStep is one choice of the search.
type linkStep struct {
	op  string // send, deliver, drop, dup, flush (the due ack), tick
	ack bool   // deliver, drop and dup: a frame of the ack direction
	i   int    // deliver, drop and dup: which frame in flight
}

func (s linkStep) String() string {
	switch s.op {
	case "send", "flush", "tick":
		return s.op
	}
	if s.ack {
		return fmt.Sprintf("%s ack#%d", s.op, s.i)
	}
	return fmt.Sprintf("%s data#%d", s.op, s.i)
}

func (w *linkWorld) clone() *linkWorld {
	c := *w
	c.snd.unacked = slices.Clone(w.snd.unacked)
	c.data = slices.Clone(w.data)
	c.acks = slices.Clone(w.acks)
	return &c
}

// choices lists every step w can take within k messages and its budgets.
func (w *linkWorld) choices(k int) []linkStep {
	var out []linkStep
	if w.sent < k {
		out = append(out, linkStep{op: "send"})
	}
	for _, ack := range []bool{false, true} {
		n := len(w.data)
		if ack {
			n = len(w.acks)
		}
		for i := range n {
			if i > 0 && (ack && w.acks[i] == w.acks[i-1] || !ack && w.data[i].Seq == w.data[i-1].Seq) {
				continue // the same frame as i-1
			}
			out = append(out, linkStep{op: "deliver", ack: ack, i: i})
			if w.faults > 0 {
				out = append(out, linkStep{op: "drop", ack: ack, i: i}, linkStep{op: "dup", ack: ack, i: i})
			}
		}
	}
	if w.rcv.ackDue {
		out = append(out, linkStep{op: "flush"})
	}
	if w.snd.deadline != 0 && w.ticks > 0 {
		out = append(out, linkStep{op: "tick"})
	}
	return out
}

// apply takes one step, and fails it if the receiver delivers anything
// but the next message sent.
func (w *linkWorld) apply(s linkStep) error {
	switch s.op {
	case "send":
		w.sent++
		env, _ := w.snd.send(probe(w.sent), w.now)
		w.data = inFlight(w.data, env.(relData))
	case "deliver":
		if s.ack {
			cum := w.acks[s.i]
			w.acks = slices.Delete(w.acks, s.i, s.i+1)
			w.snd.ack(cum, w.now)
			break
		}
		f := w.data[s.i]
		w.data = slices.Delete(w.data, s.i, s.i+1)
		if w.rcv.recv(f.Seq) == 0 {
			if got := f.M.(probe); got != probe(w.delivered+1) {
				return fmt.Errorf("delivered message %d after %d", got, w.delivered)
			}
			w.delivered++
		}
	case "drop", "dup":
		w.faults--
		if s.ack {
			w.acks = faulty(s.op, w.acks, s.i)
		} else {
			w.data = faulty(s.op, w.data, s.i)
		}
	case "flush":
		if cum, due := w.rcv.takeAck(); due {
			i, _ := slices.BinarySearch(w.acks, cum)
			w.acks = slices.Insert(w.acks, i, cum)
		}
	case "tick":
		w.ticks--
		w.now = w.snd.deadline
		for _, env := range w.snd.due(w.now) {
			w.data = inFlight(w.data, env.(relData))
		}
	}
	return nil
}

// inFlight adds f to the data frames in flight.
func inFlight(data []relData, f relData) []relData {
	i, _ := slices.BinarySearchFunc(data, f.Seq, func(g relData, seq uint64) int { return cmp.Compare(g.Seq, seq) })
	return slices.Insert(data, i, f)
}

// faulty drops frame i, or duplicates it right behind itself.
func faulty[T any](op string, frames []T, i int) []T {
	if op == "drop" {
		return slices.Delete(frames, i, i+1)
	}
	return slices.Insert(frames, i+1, frames[i])
}

// settle runs w on once faults stop and frames flow FIFO: it sends what
// is left to send and takes the lowest frame in flight, the due ack or a
// tick, whichever comes first, until nothing moves. Then all k
// messages must be delivered and the sender's window empty.
func (w *linkWorld) settle(k int) error {
	for range 100 * k {
		var s linkStep
		switch {
		case w.sent < k:
			s.op = "send"
		case len(w.data) > 0:
			s.op = "deliver"
		case w.rcv.ackDue:
			s.op = "flush"
		case len(w.acks) > 0:
			s = linkStep{op: "deliver", ack: true}
		case w.snd.deadline != 0:
			s.op = "tick"
		default:
			if w.delivered != k || len(w.snd.unacked) > 0 {
				return fmt.Errorf("settled with %d of %d delivered and %d unacked", w.delivered, k, len(w.snd.unacked))
			}
			return nil
		}
		if err := w.apply(s); err != nil {
			return err
		}
	}
	return fmt.Errorf("not settled after %d fault-free steps", 100*k)
}

// appendKey appends w's fingerprint to b: what decides w's future.
// Neither the clock, the backoff attempt nor the jitter does, since a
// tick is offered whenever a deadline is set.
func (w *linkWorld) appendKey(b []byte) []byte {
	var flags byte
	if w.snd.deadline != 0 {
		flags |= 1
	}
	if w.rcv.ackDue {
		flags |= 2
	}
	b = append(b, byte(w.sent), byte(w.delivered), byte(w.faults), byte(w.ticks), flags,
		byte(w.snd.next), byte(w.rcv.expected), byte(len(w.snd.unacked)), byte(len(w.data)))
	for _, env := range w.snd.unacked {
		b = append(b, byte(env.(relData).Seq))
	}
	for _, f := range w.data {
		b = append(b, byte(f.Seq))
	}
	for _, cum := range w.acks {
		b = append(b, byte(cum))
	}
	return b
}

// exploreLink visits every state reachable from w in k messages, checks
// the delivered prefix at every step and settle from every state, and
// returns the number of states, or the first failure with the choices
// that led to it.
func exploreLink(w *linkWorld, k int) (states int, err error) {
	seen := map[string]bool{}
	var path []linkStep
	var key []byte
	var visit func(w *linkWorld) error
	visit = func(w *linkWorld) error {
		if key = w.appendKey(key[:0]); seen[string(key)] {
			return nil
		}
		seen[string(key)] = true
		if err := w.clone().settle(k); err != nil {
			return fmt.Errorf("%v, then settle: %w", path, err)
		}
		for _, s := range w.choices(k) {
			next := w.clone()
			path = append(path, s)
			if err := next.apply(s); err != nil {
				return fmt.Errorf("%v: %w", path, err)
			}
			if err := visit(next); err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	err = visit(w)
	return len(seen), err
}

// TestExploreReliableLink drives a sender's and a receiver's relLink
// through every schedule of K = 3 messages one way and their acks the
// other. At each step it sends the next message, delivers any frame in
// flight (not only the oldest: a killed connection's tail races the
// redialed one), drops or duplicates one within a budget of 3 faults,
// flushes the receiver's due ack, or ticks the sender past its deadline
// (2 ticks, 1 under -short). At every step the receiver must have
// delivered exactly 1..d of what was sent, each once and in order; from
// every state, once faults stop and frames flow FIFO, all K must be
// delivered and the sender's window must empty.
func TestExploreReliableLink(t *testing.T) {
	const k, faults = 3, 3
	ticks := 2
	if testing.Short() {
		ticks = 1
	}
	w := &linkWorld{
		snd:    newRelLink(Link{From: 0, To: 1}, time.Millisecond, 8*time.Millisecond),
		rcv:    newRelLink(Link{From: 0, To: 1}, time.Millisecond, 8*time.Millisecond),
		faults: faults,
		ticks:  ticks,
	}
	states, err := exploreLink(w, k)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reliable link K=%d faults=%d ticks=%d: %d states, complete", k, faults, ticks, states)
}
