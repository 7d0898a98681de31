package mralloc

import (
	"context"
	"fmt"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/transport"
)

// Policy names an admission-scheduling policy for multiplexed
// sessions. Each node feeds queued session requests one at a time into
// its protocol state machine (the paper's one-outstanding-request
// hypothesis); the policy decides the order. Whatever the policy, a
// request that has waited past the aging threshold is admitted in
// arrival order, so no session starves.
type Policy string

const (
	// PolicyFIFO admits requests in arrival order (the default).
	PolicyFIFO Policy = "fifo"
	// PolicySSF admits the request with the fewest resources first:
	// better mean latency, tail latency bounded by aging.
	PolicySSF Policy = "ssf"
	// PolicyEDF admits the request with the nearest deadline first
	// (see AcquireOpts.Deadline); requests without deadlines go last,
	// in arrival order.
	PolicyEDF Policy = "edf"
	// PolicyAdaptive closes the loop on observed load: each node tracks
	// EWMAs of queue depth, grant latency and slot occupancy, orders the
	// queue EDF when calm and smallest-first under pressure, and
	// self-tunes an admission bound (Little's law against a 100ms
	// grant-latency target) past which mrallocd's client port sheds
	// arrivals early instead of queueing them beyond the saturation
	// knee. A Cluster has no client port, so here the policy only
	// orders the queue.
	PolicyAdaptive Policy = "adaptive"
)

// Errors a cluster's acquires can return, beyond context errors.
// Compare with errors.Is.
var (
	// ErrClosed: the cluster was closed while the request was queued
	// or outstanding.
	ErrClosed = live.ErrClosed
	// ErrSessionClosed: Acquire on a session after its Close.
	ErrSessionClosed = live.ErrSessionClosed
	// ErrSessionBusy: a session already has an Acquire in flight; open
	// more sessions for more concurrency.
	ErrSessionBusy = live.ErrSessionBusy
)

// ClusterConfig sizes an in-process lock-manager cluster.
type ClusterConfig struct {
	// Nodes is the number of participants (each typically fronting one
	// shard, worker or tenant of the embedding application).
	Nodes int
	// Resources is the size M of the lockable universe.
	Resources int
	// Algorithm must be CounterLoan (default) or CounterNoLoan; the
	// baselines exist for simulation comparisons, not production use.
	Algorithm Algorithm
	// LoanThreshold overrides the loan trigger (default 1): a waiting
	// node missing at most this many resources asks to borrow them.
	// CounterLoan only; negative is an error.
	LoanThreshold int
	// Latency, when positive, delays every message — useful to make
	// protocol behaviour visible in demos and tests. In-process
	// clusters only; negative is an error.
	Latency time.Duration

	// Peers switches the cluster to multi-process mode: Peers[i] is the
	// TCP address of the process hosting node i, and this process runs
	// the nodes listed in Local, exchanging protocol messages over the
	// wire (internal/wire binary codec, length-prefixed frames). Every
	// participating process must use the same Nodes, Resources,
	// Algorithm and Peers, and the Local sets must partition the nodes.
	// cmd/mrallocd is a ready-made daemon around exactly this mode.
	Peers []string
	// Local lists the node ids hosted by this process (required with
	// Peers). Acquire works only for local nodes.
	Local []int
	// Listen is this process's bind address. Empty defaults to
	// Peers[Local[0]]; set it when the advertised address differs from
	// the bindable one (e.g. listening on :port behind a hostname).
	Listen string

	// Policy is the admission-scheduling policy of every node
	// (PolicyFIFO when empty, PolicySSF, PolicyEDF, PolicyAdaptive). A
	// request queued longer than 500ms is admitted in arrival order
	// whatever the policy.
	Policy Policy
}

// Cluster is a running in-process multi-resource lock manager. All
// methods are safe for concurrent use.
type Cluster struct {
	inner *live.Cluster
}

// LoanStats aggregates the loan mechanism's activity across nodes: how
// many loans were requested, granted, and bounced back (failed). All
// zeros under CounterNoLoan.
type LoanStats struct {
	Asked, Granted, Returned int
}

// NewCluster starts a cluster of protocol nodes as cfg describes. The
// peer links of a multi-process cluster always delta-encode token
// state.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	copt, ok := coreOptions(cfg.Algorithm)
	if !ok {
		return nil, fmt.Errorf("mralloc: algorithm %q not supported for live clusters", cfg.Algorithm)
	}
	switch {
	case cfg.LoanThreshold < 0:
		return nil, fmt.Errorf("mralloc: negative LoanThreshold %d", cfg.LoanThreshold)
	case cfg.LoanThreshold > 0 && !copt.Loan:
		return nil, fmt.Errorf("mralloc: LoanThreshold applies to %s only", CounterLoan)
	case cfg.LoanThreshold > 0:
		copt.LoanThreshold = cfg.LoanThreshold
	}
	policy, err := serve.ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, fmt.Errorf("mralloc: %w", err)
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("mralloc: negative Latency %v", cfg.Latency)
	}
	lcfg := live.Config{
		Nodes:     cfg.Nodes,
		Resources: cfg.Resources,
		Latency:   cfg.Latency,
		Policy:    policy,
		Wire:      transport.WireOptions{Delta: true},
	}
	if len(cfg.Peers) > 0 {
		if len(cfg.Peers) != cfg.Nodes {
			return nil, fmt.Errorf("mralloc: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
		}
		if len(cfg.Local) == 0 {
			return nil, fmt.Errorf("mralloc: multi-process mode needs Local node ids")
		}
		if cfg.Latency > 0 {
			return nil, fmt.Errorf("mralloc: Latency applies to in-process clusters only")
		}
		listen := cfg.Listen
		if listen == "" {
			if l := cfg.Local[0]; l >= 0 && l < len(cfg.Peers) {
				listen = cfg.Peers[l]
			}
		}
		tr, err := transport.ListenTCP(listen, cfg.Nodes, cfg.Local...)
		if err != nil {
			return nil, err
		}
		if err := tr.Connect(cfg.Peers); err != nil {
			tr.Close()
			return nil, err
		}
		lcfg.Transport = tr
		lcfg.Local = cfg.Local
	}
	inner, err := live.New(lcfg, core.NewFactory(copt))
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// LoanStats snapshots the loan mechanism's aggregate activity. Each
// node's counters are read on its shard's runner, so the snapshot
// is race-free (though nodes are sampled one after another).
func (c *Cluster) LoanStats() LoanStats {
	var s LoanStats
	for id := 0; id < c.inner.N(); id++ {
		c.inner.Inspect(id, func(nd alg.Node) {
			cs := nd.(*core.Node).Counters()
			s.Asked += cs.LoanAsks
			s.Granted += cs.LoansGranted
			s.Returned += cs.LoanReturns
		})
	}
	return s
}

// Acquire blocks until node holds exclusive access to every listed
// resource, then returns a release function (call it exactly once; it
// is idempotent). Deadlock cannot occur regardless of how callers
// overlap their resource sets — that is the algorithm's job. If ctx
// ends first, the eventual grant is released automatically.
//
// Acquire is the one-session convenience form: any number of
// concurrent Acquires may target one node; they queue in the node's
// admission scheduler and enter the protocol one at a time under the
// cluster's Policy. Long-lived clients should hold a Session instead.
func (c *Cluster) Acquire(ctx context.Context, node int, resources ...int) (func(), error) {
	return c.inner.Acquire(ctx, node, resources...)
}

// AcquireOpts parameterizes Session.AcquireWith.
type AcquireOpts struct {
	// Resources lists the resource identifiers to lock, all-or-nothing.
	Resources []int
	// Deadline, when non-zero, is the instant the caller wants
	// admission by; it orders the queue under PolicyEDF. It does not
	// abort a late request — use the context for timeouts (whose
	// deadline, if any, is used when this field is zero).
	Deadline time.Time
}

// Session is one client's serialized stream of acquisitions on a node.
// A node serves any number of concurrent sessions: their requests
// queue in its admission scheduler and enter the allocation protocol
// one at a time under the cluster's Policy, so "users" scale
// independently of protocol nodes. A session itself admits one
// Acquire at a time (ErrSessionBusy otherwise).
type Session struct {
	inner *live.Session
}

// NewSession opens a session on node (which must be hosted by this
// process in multi-process mode). Sessions are cheap: open one per
// logical client, not one per cluster.
func (c *Cluster) NewSession(node int) (*Session, error) {
	s, err := c.inner.NewSession(node)
	if err != nil {
		return nil, err
	}
	return &Session{inner: s}, nil
}

// Acquire blocks until the session holds every listed resource, then
// returns the release function (call it exactly once; idempotent).
// If ctx ends first the request is withdrawn — or, when the protocol
// has already committed the grant, handed straight back — and ctx's
// error returned.
func (s *Session) Acquire(ctx context.Context, resources ...int) (func(), error) {
	return s.inner.Acquire(ctx, serve.AcquireOpts{Resources: resources})
}

// AcquireWith is Acquire with explicit options (deadline-aware
// scheduling under PolicyEDF).
func (s *Session) AcquireWith(ctx context.Context, opts AcquireOpts) (func(), error) {
	return s.inner.Acquire(ctx, serve.AcquireOpts{Resources: opts.Resources, Deadline: opts.Deadline})
}

// Grants reports how many acquisitions the session has completed.
func (s *Session) Grants() int64 { return s.inner.Grants() }

// Close invalidates the session. It does not interrupt an Acquire in
// flight (cancel its context for that) nor revoke a held grant.
func (s *Session) Close() { s.inner.Close() }

// Stats snapshots protocol traffic by message kind.
func (c *Cluster) Stats() map[string]int64 { return c.inner.Stats() }

// N reports the number of nodes.
func (c *Cluster) N() int { return c.inner.N() }

// M reports the number of resources.
func (c *Cluster) M() int { return c.inner.M() }

// Close shuts the cluster down. Outstanding Acquire calls fail.
func (c *Cluster) Close() { c.inner.Close() }
