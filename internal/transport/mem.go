package transport

import (
	"fmt"
	"sync"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/sim"
)

// Mem is the in-process transport: all N nodes live on this endpoint
// and a Send is a direct (per-destination-serialized) handler call, so
// messages never leave the process and never serialize; Mem never reads
// the message it carries. A live cluster with no Transport and no
// latency builds no Mem at all: every message there is between two
// sites of one shard runner, which delivers it in its own drain. The
// zero-latency Send is the route of a Mem handed to a cluster
// explicitly (under the Reliable and Chaos wrappers, or bare in tests);
// latency mode is the route of every cluster that asks for a delay.
//
// A positive latency delays every delivery by that amount while
// preserving FIFO per link: each (shard, sender, destination) link gets
// one forwarding queue drained by one goroutine, so equal per-message
// delays cannot reorder a link, and shard traffic pipelines instead of
// queueing behind other shards' latency.
//
// The delay is one Clock.Sleep (Config.Clock) per message, on the wall
// clock a time.Sleep, and on Linux a sleep shorter than a millisecond
// does not last what it says: with no other goroutine to run, the P
// parks in epoll_wait, whose timeout is whole milliseconds rounded up
// (runtime netpoll: delay < 1e6 ns → 1 ms).
// Measured at GOMAXPROCS 1 and 2, time.Sleep(200µs) returns after
// p10/p50/p90 = 1075/1088/1137 µs and 1.5 ms after 2.18 ms. A
// sub-millisecond latency therefore costs about one millisecond per hop
// (a second P spinning on other work does not shorten it), and a link
// forwards one message per sleep. Any timer-based replacement rounds
// the same way.
type Mem struct {
	n       int
	latency time.Duration
	binder  *binder
	clk     sim.Clock // Configure announces it, before any traffic; Wall until then

	// mu guards links and the closing of closed, so a link's forwarder
	// either starts before Close waits for the forwarders or not at all.
	mu     sync.Mutex
	closed chan struct{}
	links  map[Link]chan network.Message // each link's delay queue (latency mode only, created lazily)
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
		clk:     sim.Wall(),
		closed:  make(chan struct{}),
	}
}

// N implements Transport.
func (t *Mem) N() int { return t.n }

// Hosts implements Transport: every node is local to the in-process
// fabric.
func (t *Mem) Hosts(id network.NodeID) bool { return id >= 0 && int(id) < t.n }

// Configure implements Transport. The in-process fabric only needs the
// shard count and the clock its delays sleep on: there is no codec to
// validate universes against and no wire path to tune.
func (t *Mem) Configure(cfg Config) {
	t.clk = cfg.clock()
	t.binder.grow(len(cfg.Shards))
}

// Bind implements Transport.
func (t *Mem) Bind(shard int, id network.NodeID, h Handler) {
	t.binder.mustSlot(shard, id).bind(h)
}

// Send implements Transport: m is delivered under the destination's
// binder lock (zero latency) or after one delay on the link's
// forwarder (latency mode).
func (t *Mem) Send(l Link, m network.Message) {
	checkDest(t.n, l.To)
	slot := t.binder.mustSlot(l.Shard, l.To)
	select {
	case <-t.closed:
		return
	default:
	}
	if t.latency <= 0 {
		slot.deliver(l.From, m)
		return
	}
	ch := t.link(l, slot)
	if ch == nil {
		return // closed since the check above
	}
	select {
	case ch <- m:
	case <-t.closed:
		// Closed mid-send: the link's forwarder may be gone; drop.
	}
}

// link returns the delay queue of one link, starting its forwarding
// goroutine on first use, or nil once the transport is closed.
func (t *Mem) link(l Link, slot *binderSlot) chan network.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch, ok := t.links[l]; ok {
		return ch
	}
	select {
	case <-t.closed:
		return nil
	default:
	}
	if t.links == nil {
		t.links = make(map[Link]chan network.Message)
	}
	// 1024 messages of slack before a sender feels the link's delay as
	// backpressure; the queue stays bounded like a socket buffer.
	ch := make(chan network.Message, 1024)
	t.links[l] = ch
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case m := <-ch:
				t.clk.Sleep(t.latency)
				slot.deliver(l.From, m)
			case <-t.closed:
				return
			}
		}
	}()
	return ch
}

// AbortConns implements Transport: there are no connections to kill.
func (t *Mem) AbortConns() int { return 0 }

// Close implements Transport.
func (t *Mem) Close() error {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return nil
	default:
	}
	close(t.closed)
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
