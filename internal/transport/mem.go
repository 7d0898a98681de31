package transport

import (
	"fmt"
	"sync"
	"time"

	"mralloc/internal/network"
)

// Mem is the in-process transport: all N nodes live on this endpoint
// and a Send is a direct (per-destination-serialized) handler call, so
// messages never leave the process and never serialize. A live cluster
// that builds its own zero-latency Mem does not send through it: every
// message there is between two sites of one shard runner, which
// delivers it in its own drain and only reports it to Count. The
// zero-latency Send is the route of a Mem handed to a cluster
// explicitly (under the Reliable and Chaos wrappers, or bare in tests);
// latency mode is the route of every cluster that asks for a delay.
//
// A run is delivered as a unit: it crosses into the destination under
// one binder-lock acquisition — and, in latency mode, under one delay —
// mirroring how the TCP fabric ships a run as one envelope.
//
// A positive latency delays every delivery by that amount while
// preserving FIFO per link: each (shard, sender, destination) link gets
// one forwarding queue drained by one goroutine, so equal per-message
// delays cannot reorder a link, and shard traffic pipelines instead of
// queueing behind other shards' latency.
//
// The delay is a time.Sleep per run, and on Linux a sleep shorter than a
// millisecond does not last what it says: with no other goroutine to
// run, the P parks in epoll_wait, whose timeout is whole milliseconds
// rounded up (runtime netpoll: delay < 1e6 ns → 1 ms). Measured at
// GOMAXPROCS 1 and 2, time.Sleep(200µs) returns after p10/p50/p90 =
// 1075/1088/1137 µs and 1.5 ms after 2.18 ms. A sub-millisecond latency
// therefore costs about one millisecond per hop (a second P spinning
// on other work does not shorten it), and a link forwards one run per
// sleep. Any timer-based replacement rounds the same way.
type Mem struct {
	n       int
	latency time.Duration
	binder  *binder
	stats   kindStats

	closeMu sync.Mutex
	closed  chan struct{}

	// links holds each link's delay queue (latency mode only, created
	// lazily).
	linkMu sync.Mutex
	links  map[Link]chan held
	wg     sync.WaitGroup
}

// NewMem creates an in-process transport for n nodes. A positive
// latency delays every delivery (demos, protocol-visibility tests); see
// Mem for what a latency below a millisecond really costs on Linux.
func NewMem(n int, latency time.Duration) *Mem {
	if n < 1 {
		panic(fmt.Sprintf("transport: need ≥1 node, got %d", n))
	}
	return &Mem{
		n:       n,
		latency: latency,
		binder:  newBinder(n),
		closed:  make(chan struct{}),
	}
}

// N implements Transport.
func (t *Mem) N() int { return t.n }

// Hosts implements Transport: every node is local to the in-process
// fabric.
func (t *Mem) Hosts(id network.NodeID) bool { return id >= 0 && int(id) < t.n }

// Configure implements Transport. The in-process fabric only needs the
// shard count: there is no codec to validate universes against and no
// wire path to tune.
func (t *Mem) Configure(cfg Config) { t.binder.grow(len(cfg.Shards)) }

// Bind implements Transport.
func (t *Mem) Bind(shard int, id network.NodeID, h Handler) {
	t.binder.mustSlot(shard, id).bind(h)
}

// Send implements Transport: the run is delivered under one binder-lock
// acquisition (zero latency) or one delay (latency mode — it travels as
// a unit, like one envelope on a wire).
func (t *Mem) Send(l Link, msgs []network.Message) {
	if len(msgs) == 0 {
		return
	}
	checkDest(t.n, l.To)
	slot := t.binder.mustSlot(l.Shard, l.To)
	select {
	case <-t.closed:
		return
	default:
	}
	t.stats.count(msgs)
	if t.latency <= 0 {
		slot.deliver(l.From, msgs)
		return
	}
	select {
	case t.link(l, slot) <- hold(msgs):
	case <-t.closed:
		// Closed mid-send: the link's forwarder may be gone; drop.
	}
}

// link returns the delay queue of one link, starting its forwarding
// goroutine on first use.
func (t *Mem) link(l Link, slot *binderSlot) chan held {
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	if t.links == nil {
		t.links = make(map[Link]chan held)
	}
	ch, ok := t.links[l]
	if !ok {
		// 1024 runs of slack before a sender feels the link's delay as
		// backpressure; the queue stays bounded like a socket buffer.
		ch = make(chan held, 1024)
		t.links[l] = ch
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			var run held // outside the loop: see held.msgs
			for {
				select {
				case run = <-ch:
					time.Sleep(t.latency)
					slot.deliver(l.From, run.msgs())
				case <-t.closed:
					return
				}
			}
		}()
	}
	return ch
}

// Count adds m to the per-kind counters Stats reports, for a message
// the owner of this endpoint delivered without a Send.
func (t *Mem) Count(m network.Message) { t.stats.counter(m.Kind()).Add(1) }

// Stats implements Transport.
func (t *Mem) Stats() map[string]int64 { return t.stats.snapshot() }

// AbortConns implements Transport: there are no connections to kill.
func (t *Mem) AbortConns() int { return 0 }

// Err implements Transport: nothing in the fabric fails asynchronously.
func (t *Mem) Err() error { return nil }

// Close implements Transport.
func (t *Mem) Close() error {
	t.closeMu.Lock()
	select {
	case <-t.closed:
		t.closeMu.Unlock()
		return nil
	default:
	}
	close(t.closed)
	t.closeMu.Unlock()
	t.wg.Wait()
	return nil
}
