// Package stack builds one process's share of a live cluster from one
// Spec: cmd/mrallocd fills it from its flags, mralloc.NewCluster from a
// ClusterConfig. Build refuses what the program cannot run, naming the
// daemon flags involved, and binds the sockets; Start connects and
// starts the cluster; Close tears down whatever is up.
//
// Every process of a cluster must run the same protocol over the same
// fabric (the paper's hypotheses 1–3). Build renders the cluster-wide
// fields in flag syntax, "-alg=counter-loan -lease-ttl=0s
// -reliable=false"; the peer endpoint's hello carries that string, and
// a peer whose string differs is refused before any frame crosses.
// The other fields are local: two processes may differ in them.
package stack

import (
	"fmt"
	"net"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/experiments"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// Spec is what one process of a cluster runs, as parsed values, each
// field named after its mrallocd flag.
type Spec struct {
	Nodes, Resources int
	Shards           int           // at least 1
	Alg              string        // cluster-wide
	LeaseTTL         time.Duration // cluster-wide
	Reliable         bool          // cluster-wide
	ChaosSpec        string
	// Peers[i] is the address of the process hosting node i; empty runs
	// every node in this process, with no socket, and no Reliable or
	// Chaos either.
	Peers        []string
	Local        []int  // required with Peers
	Listen       string // empty is Peers[Local[0]]
	ClientListen string // empty opens no client port
	Policy       serve.Policy
	AdmitTarget  time.Duration
	// Latency delays every message of an in-process cluster
	// (mralloc.ClusterConfig; the daemon has no such flag).
	Latency time.Duration
}

// Stack is one process's layers, live → Reliable → Chaos → TCP, as Build
// assembles them: bound, not connected.
type Stack struct {
	// Spec is what was built, defaults filled in. Start connects to
	// Spec.Peers, which a caller may point at ports bound after Build.
	Spec  Spec
	TCP   *transport.TCP      // nil without Peers
	Chaos *transport.Chaos    // nil without ChaosSpec
	Rel   *transport.Reliable // nil without Reliable
	Port  net.Listener        // nil without ClientListen

	cfg     live.Config
	factory alg.Factory
	cluster *live.Cluster
}

// Build refuses every Spec the program cannot run, then binds the peer
// endpoint and the client port and assembles the stack over them.
func Build(s Spec) (*Stack, error) {
	factory, err := factoryFor(s.Alg, s.LeaseTTL)
	if err != nil {
		return nil, err
	}
	faults, err := transport.ParseSpec(s.ChaosSpec)
	if err != nil {
		return nil, fmt.Errorf("-chaos-spec: %w", err)
	}
	// A lost frame wedges the protocol and a repeated one hands a token
	// to two owners: only Reliable above the chaos keeps either from it.
	if (faults.Drop > 0 || faults.Dup > 0 || faults.KillEvery > 0) && !s.Reliable {
		return nil, fmt.Errorf("-chaos-spec %s can lose or repeat peer messages: it needs -reliable", faults)
	}
	if s.Policy, err = serve.ParsePolicy(string(s.Policy)); err != nil {
		return nil, err
	}
	if s.AdmitTarget != 0 && s.Policy != serve.Adaptive {
		return nil, fmt.Errorf("-admit-target %v: -policy %s has no grant-latency target (only adaptive does)", s.AdmitTarget, s.Policy)
	}
	if len(s.Peers) > 0 {
		if len(s.Peers) != s.Nodes {
			return nil, fmt.Errorf("-peers must list exactly %d addresses, got %d", s.Nodes, len(s.Peers))
		}
		if len(s.Local) == 0 {
			return nil, fmt.Errorf("-local: no node ids given")
		}
		for _, id := range s.Local {
			if id < 0 || id >= s.Nodes {
				return nil, fmt.Errorf("-local: node id %d outside [0, %d)", id, s.Nodes)
			}
		}
	}
	if s.Shards < 1 || s.Shards > s.Resources {
		return nil, fmt.Errorf("-shards %d outside [1, %d]", s.Shards, s.Resources)
	}

	st := &Stack{factory: factory}
	st.cfg = live.Config{
		Nodes:       s.Nodes,
		Resources:   s.Resources,
		Shards:      s.Shards,
		Local:       s.Local,
		Latency:     s.Latency,
		Policy:      s.Policy,
		AdmitTarget: s.AdmitTarget,
		Wire: transport.WireOptions{
			Delta:   true,
			Cluster: fmt.Sprintf("-alg=%s -lease-ttl=%v -reliable=%t", s.Alg, s.LeaseTTL, s.Reliable),
		},
	}
	// Leases need a clock: tick each node three times per heartbeat
	// (the heartbeat period is a third of the TTL).
	if s.LeaseTTL > 0 {
		if st.cfg.Tick = s.LeaseTTL / 9; st.cfg.Tick <= 0 {
			st.cfg.Tick = time.Millisecond
		}
	}
	if len(s.Peers) > 0 {
		if s.Listen == "" {
			s.Listen = s.Peers[s.Local[0]]
		}
		if st.TCP, err = transport.ListenTCP(s.Listen, s.Nodes, s.Local...); err != nil {
			return nil, err
		}
		st.cfg.Transport = st.TCP
		if faults != (transport.Spec{}) {
			st.Chaos = transport.NewChaos(st.TCP, faults.Seed)
			st.Chaos.Apply(faults)
			st.cfg.Transport = st.Chaos
		}
		if s.Reliable {
			st.Rel = transport.NewReliable(st.cfg.Transport)
			st.cfg.Transport = st.Rel
		}
	}
	st.Spec = s
	if s.ClientListen != "" {
		if st.Port, err = net.Listen("tcp", s.ClientListen); err != nil {
			st.Close()
			return nil, fmt.Errorf("-client-listen %s: %w", s.ClientListen, err)
		}
	}
	return st, nil
}

// factoryFor is the one algorithm rule: any algorithm with a wire codec
// runs live, and leases only on the counter algorithms, whose tokens
// carry the authority epoch and whose stewards the resource id names.
func factoryFor(name string, leaseTTL time.Duration) (alg.Factory, error) {
	a, ok := experiments.AlgorithmByName(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("-alg: unknown algorithm %q", name)
	case a == experiments.SharedMem || a == experiments.Maddi || a == experiments.Manager:
		return nil, fmt.Errorf("-alg %s is simulator-only: its messages have no wire codec", name)
	case leaseTTL <= 0:
		return experiments.Factory(a), nil
	case a != experiments.WithLoan && a != experiments.WithoutLoan:
		return nil, fmt.Errorf("-lease-ttl: -alg %s has no lease support (counter-loan and counter-no-loan only)", name)
	}
	opt := core.WithoutLoan()
	if a == experiments.WithLoan {
		opt = core.WithLoan()
	}
	opt.LeaseTTL = sim.Time(leaseTTL)
	return core.NewFactory(opt), nil
}

// Start points the peer endpoint at Spec.Peers and starts the cluster.
// After an error Close still releases what Build bound.
func (st *Stack) Start() (*live.Cluster, error) {
	if st.TCP != nil {
		if err := st.TCP.Connect(st.Spec.Peers); err != nil {
			return nil, err
		}
	}
	c, err := live.New(st.cfg, st.factory)
	st.cluster = c
	return c, err
}

// Close closes the client port and stops the cluster, or, before Start,
// the transport. Each layer's Close is idempotent.
func (st *Stack) Close() {
	if st.Port != nil {
		st.Port.Close()
	}
	if st.cluster != nil {
		st.cluster.Close()
	} else if st.cfg.Transport != nil {
		st.cfg.Transport.Close()
	}
}
