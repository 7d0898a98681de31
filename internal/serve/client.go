package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/wire"
)

// ErrOverloaded reports a denial with DenyOverloaded: the chosen node
// sheds at its adaptive admission bound. Callers detect it with
// errors.Is and may try later or target another node/daemon.
var ErrOverloaded = errors.New("serve: daemon overloaded")

// ErrConnLost reports that the connection to the daemon died under a
// pending or future call: the socket failed, the daemon sent something
// unparseable, or a write errored. Every Acquire pending at that
// moment — and every call after it — resolves promptly with an error
// satisfying errors.Is(err, ErrConnLost); the daemon side withdraws
// the pending requests and hands back the grants the client held.
// A deliberate Close does NOT satisfy it: callers distinguishing "I
// hung up" from "the connection died under me" can.
var ErrConnLost = errors.New("serve: connection lost")

// Client speaks the client wire protocol to a daemon's client port:
// an external process's handle onto a running cluster. One connection
// multiplexes any number of concurrent Acquires; each is a session on
// the daemon side, admission-scheduled against everyone else's.
//
// Requests leave through a coalescing writer, so a burst of Acquires
// from many goroutines shares write syscalls, and responses are read
// through the batch-aware frame reader — the client accepts the
// daemon's coalesced grant/deny fan-outs transparently.
//
// Methods are safe for concurrent use.
type Client struct {
	c  net.Conn
	co *wire.Coalescer // request egress

	// helloed closes when the daemon's hello reply lands; hello then
	// holds what it announced (see Hello).
	helloed chan struct{}
	hello   wire.Hello

	mu      sync.Mutex
	next    uint64
	pending map[uint64]*clientPending
	free    *clientPending // entries no request is using, linked through next
	err     error          // terminal connection error
	closed  chan struct{}
}

// clientPending is one request's wait for its response. An entry is in
// Client.pending from registration until whoever deletes it there — the
// read loop delivering the response, or the waiter giving up — and the
// deleter alone may still send on ch. The waiter puts the entry on the
// free list once it knows ch is empty and stays so: after receiving the
// response, or after deleting the entry itself.
//
// An Acquire's entry stays out of the free list while its grant is
// held, as the flag its release function flips: gen counts the grants
// the entry has seen released, a release function carries the value its
// grant was made under, and the one call that moves gen on sends the
// release. A repeated call, or one that comes after the entry went on
// to another request, finds gen moved and does nothing.
type clientPending struct {
	ch   chan clientResult // buffered(1): grant or deny
	next *clientPending
	gen  atomic.Uint64
}

type clientResult struct {
	granted bool
	reason  string
	code    DenyCode
}

// Dial connects to a daemon's client port and opens the handshake: the
// client's hello goes out before any request, and the daemon's reply
// carries the cluster shape (see Hello) — a client needs no
// out-of-band N or M. Dial does not wait for the reply; requests may
// flow immediately.
func Dial(addr string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	// Raw write, ahead of the coalescer's first flush: the hello must
	// precede every frame, and nothing else is writing yet.
	mine := wire.Hello{Version: wire.ProtoVersion} // shape unknown: the reply announces it
	hello := wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, mine))
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("serve: hello to %s: %w", addr, err)
	}
	c := &Client{
		c:       nc,
		helloed: make(chan struct{}),
		pending: make(map[uint64]*clientPending),
		closed:  make(chan struct{}),
	}
	c.co = wire.NewCoalescer(nc, 0, func(err error) {
		c.fail(fmt.Errorf("%w: write: %v", ErrConnLost, err))
	})
	// Byte-bounded egress: a stalled daemon costs blocked Acquires and
	// at most this much queued request memory, never an OOM.
	c.co.SetByteBudget(clientEgressBudget)
	go c.readLoop(mine)
	return c, nil
}

// clientEgressBudget bounds the request bytes a Client queues for a
// daemon that has stopped reading.
const clientEgressBudget = 4 << 20

// Hello reports the daemon's hello reply — the cluster shape (Nodes,
// Resources) and the number of resource shards (1 for a flat cluster) —
// blocking until the reply lands, ctx ends, or the connection fails.
// Requests are always phrased over the global universe; the shard count
// describes how the daemon parallelizes them.
func (c *Client) Hello(ctx context.Context) (wire.Hello, error) {
	select {
	case <-c.helloed:
		return c.hello, nil
	case <-ctx.Done():
		return wire.Hello{}, ctx.Err()
	case <-c.closed:
		c.mu.Lock()
		defer c.mu.Unlock()
		return wire.Hello{}, c.err
	}
}

// Close drops the connection. The daemon withdraws every pending
// request and releases every grant this client still held.
func (c *Client) Close() error {
	c.fail(fmt.Errorf("serve: client closed"))
	return nil
}

// WireStats snapshots the egress counters of the client's coalescing
// writer (writes, frames, batch envelopes, bytes).
func (c *Client) WireStats() wire.CoalescerStats { return c.co.Stats() }

// AnyNode targets no node in particular: the daemon picks one of its
// hosted nodes round-robin.
const AnyNode = int(network.None)

// Acquire blocks until the daemon grants exclusive access to every
// listed resource on the given node (AnyNode lets the daemon pick),
// then returns the release function (call exactly once; idempotent).
// If ctx ends first the request is withdrawn on the daemon — a grant
// racing the withdrawal is handed straight back — and ctx.Err()
// returned.
func (c *Client) Acquire(ctx context.Context, node int, resources ...int) (func(), error) {
	return c.AcquireWith(ctx, node, AcquireOpts{Resources: resources})
}

// AcquireWith is Acquire with explicit options. A non-zero Deadline is
// shipped as a relative duration (client and daemon clocks need not
// agree) and feeds the daemon's deadline-aware admission policies. A
// denial for backpressure (the daemon's adaptive bound sheds)
// satisfies errors.Is(err, ErrOverloaded).
func (c *Client) AcquireWith(ctx context.Context, node int, opts AcquireOpts) (func(), error) {
	if node != AnyNode && node < 0 {
		return nil, fmt.Errorf("serve: bad node %d", node)
	}
	deadline := opts.Deadline
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	var deadlineMS int64
	if !deadline.IsZero() {
		deadlineMS = time.Until(deadline).Milliseconds()
		if deadlineMS < 1 {
			deadlineMS = 1 // already due: the nearest possible deadline, not "none"
		}
	}

	id, p, err := c.register()
	if err != nil {
		return nil, err
	}
	frame := appendAcquire(wire.GetFrame(128)[:wire.FrameDataOff], id, network.NodeID(node), opts.Resources, deadlineMS)
	if err := c.queue(frame); err != nil {
		c.abandon(id, p)
		return nil, err
	}
	select {
	case res := <-p.ch:
		if !res.granted {
			c.recycle(p)
			return nil, res.denied()
		}
		gen := p.gen.Load()
		return func() {
			if p.gen.CompareAndSwap(gen, gen+1) {
				c.sendRelease(id)
				c.recycle(p)
			}
		}, nil
	case <-ctx.Done():
		// Withdraw. If the grant already raced in, the entry is gone
		// and the daemon treats this as a plain release; otherwise the
		// daemon cancels the queued request (and sends no response, so
		// the entry must be dropped here, not by a later dispatch).
		// Either way nothing stays held on our behalf.
		c.abandon(id, p)
		c.sendRelease(id)
		return nil, ctx.Err()
	case <-c.closed:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
}

// register reserves the next request id and a pending entry for it, or
// reports the connection's terminal error.
func (c *Client) register() (id uint64, p *clientPending, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.next++
	if p = c.free; p != nil {
		c.free, p.next = p.next, nil
	} else {
		p = &clientPending{ch: make(chan clientResult, 1)}
	}
	c.pending[c.next] = p
	return c.next, p, nil
}

// abandon gives up on request id. If its entry is still pending nothing
// will be sent on it now, so it is recycled; if the read loop got there
// first the entry is left to the garbage collector, a response already
// in (or on its way into) its channel.
func (c *Client) abandon(id uint64, p *clientPending) {
	c.mu.Lock()
	if c.pending[id] == p {
		delete(c.pending, id)
		p.next, c.free = c.free, p
	}
	c.mu.Unlock()
}

// recycle frees an entry whose response has been received (and, for a
// grant, released).
func (c *Client) recycle(p *clientPending) {
	c.mu.Lock()
	p.next, c.free = c.free, p
	c.mu.Unlock()
}

// denied renders a denial as the error Acquire returns.
func (r clientResult) denied() error {
	if r.code == DenyOverloaded {
		return fmt.Errorf("serve: denied: %s: %w", r.reason, ErrOverloaded)
	}
	return fmt.Errorf("serve: denied: %s", r.reason)
}

// readLoop reads the daemon's answer to the hello Dial sent, mine, then
// responses until the connection ends.
func (c *Client) readLoop(mine wire.Hello) {
	br := bufio.NewReader(c.c)
	hello, err := wire.ReadHelloReply(br, mine)
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
		return
	}
	c.hello = hello
	close(c.helloed)
	fr := wire.NewFrameReader(br, maxClientFrame)
	var rt roundTrip
	for {
		frame, err := fr.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnLost, err))
			return
		}
		if err := rt.parse(frame, 0, 0); err != nil {
			c.fail(fmt.Errorf("%w: bad frame: %v", ErrConnLost, err))
			return
		}
		if rt.kind == grantKind {
			c.dispatch(rt.grant.Req, clientResult{granted: true})
			continue
		}
		m, err := wire.Decode(frame) // a denial, or a kind the daemon must not send
		if err != nil {
			c.fail(fmt.Errorf("%w: bad frame: %v", ErrConnLost, err))
			return
		}
		x, ok := m.(ClientDeny)
		if !ok {
			c.fail(fmt.Errorf("%w: unexpected %s from daemon", ErrConnLost, m.Kind()))
			return
		}
		c.dispatch(x.Req, clientResult{reason: x.Reason, code: x.Code})
	}
}

// dispatch hands a response to its waiting Acquire. Responses to
// unknown requests are dropped: the waiter withdrew (its ClientRelease
// is already on the wire, so a racing grant is handed straight back by
// the daemon) or never existed.
func (c *Client) dispatch(id uint64, res clientResult) {
	c.mu.Lock()
	p, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	p.ch <- res
}

// fail records the terminal error, closes the connection, and wakes
// every waiter. Idempotent.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	c.mu.Unlock()
	close(c.closed)
	c.c.Close()
	// Join the coalescer's flusher from a fresh goroutine: fail may be
	// running on that very flusher (write-error callback), and the
	// close blocks until it exits. With the socket closed it drains
	// fast; the deadline bounds the join if it somehow does not.
	go c.co.CloseWithin(10 * time.Second)
}

// queue hands one request frame — encoded into an owned pooled buffer
// from wire.FrameDataOff on — to the coalescing writer, which writes
// from it and releases it.
func (c *Client) queue(frame []byte) error {
	if c.co.AppendOwned(frame, wire.FinishFrame(frame)) {
		return nil
	}
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("serve: connection closed")
	}
	return err
}

// sendRelease ends or withdraws request id. A failure to send means the
// connection is gone, and the daemon has released everything with it.
func (c *Client) sendRelease(id uint64) {
	c.queue(appendRelease(wire.GetFrame(128)[:wire.FrameDataOff], id))
}
