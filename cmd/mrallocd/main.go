// Command mrallocd runs one process of a multi-process mralloc
// cluster: it hosts one or more protocol nodes, listens for peer
// traffic on TCP, routes and owns tokens on behalf of the cluster, and
// serves external clients on its client port. It only serves: load
// comes from mrclient (or any internal/serve.Client) against
// -client-listen.
//
// A 3-node loopback cluster, one daemon per node, each with a client
// port:
//
//	P=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	mrallocd -nodes 3 -resources 16 -local 0 -listen 127.0.0.1:7000 -peers $P -client-listen 127.0.0.1:8000 &
//	mrallocd -nodes 3 -resources 16 -local 1 -listen 127.0.0.1:7001 -peers $P -client-listen 127.0.0.1:8001 &
//	mrallocd -nodes 3 -resources 16 -local 2 -listen 127.0.0.1:7002 -peers $P -client-listen 127.0.0.1:8002 &
//	mrclient -addr 127.0.0.1:8000 -sessions 64 -ops 20 -phi 3
//
// Every daemon must be given the same -nodes, -resources, -alg and
// -peers; each hosts a disjoint -local set covering all nodes. A
// daemon participates until SIGINT/SIGTERM. Shutdown is graceful: the
// daemon drains first, handing every token it owns to a waiting peer
// or the resource's steward, so the surviving cluster never waits out
// a lease expiry for resources this process held; then it prints
// per-kind message statistics and exits.
//
// External processes speak the client wire protocol (internal/serve)
// to the client port, each connection multiplexing any number of
// concurrent acquisition sessions onto the hosted nodes through the
// admission scheduler (-policy picks the ordering).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof exposes the default mux's profiles
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/experiments"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
)

// daemonConfig carries the parsed flags into run.
type daemonConfig struct {
	nodes, resources int
	shards           int
	crossTwoPhase    bool
	algName          string
	listen           string
	peersCSV         string
	localCSV         string
	clientListen     string
	policyStr        string
	admitTarget      time.Duration
	pprofAddr        string
	chaosSpec        string
	reliable         bool
	leaseTTL         time.Duration
}

// registerFlags declares the daemon's whole flag surface on fs; the
// flag-surface test renders it from here.
func registerFlags(fs *flag.FlagSet, cfg *daemonConfig) {
	fs.IntVar(&cfg.nodes, "nodes", 3, "total number of nodes N in the cluster")
	fs.IntVar(&cfg.resources, "resources", 16, "number of resources M")
	fs.IntVar(&cfg.shards, "shards", 1, "split the resource universe into this many contiguous shards, each with its own allocator instances and event loops; every daemon of the cluster must agree (1 = flat)")
	fs.BoolVar(&cfg.crossTwoPhase, "cross-two-phase", false, "acquire cross-shard sets with the parallel two-phase scheme (timeout, hand back, retry) instead of ordered shard locking (needs -shards above 1)")
	fs.StringVar(&cfg.algName, "alg", "counter-loan", "algorithm: "+strings.Join(experiments.AlgorithmNames(), ", ")+" (shared-memory, maddi and manager are simulator-only)")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7000", "TCP listen address of this process")
	fs.StringVar(&cfg.peersCSV, "peers", "", "comma-separated list of N addresses; entry i hosts node i")
	fs.StringVar(&cfg.localCSV, "local", "0", "comma-separated node ids hosted by this process")
	fs.StringVar(&cfg.clientListen, "client-listen", "", "TCP address of the client port (empty = no client port)")
	fs.StringVar(&cfg.policyStr, "policy", "fifo", "admission policy for multiplexed sessions: fifo, ssf, edf, adaptive")
	fs.DurationVar(&cfg.admitTarget, "admit-target", 0, "adaptive policy's grant-latency target; its self-tuned bound sheds client acquires that cannot meet it (0 = built-in default; -policy adaptive only)")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	fs.StringVar(&cfg.chaosSpec, "chaos-spec", "", "fault injection on outgoing peer messages, as key=value pairs: seed=7,drop=0.02,dup=0.02,delay=100us..1ms,kill-every=2s (drop/dup: probability in [0,1] per message; delay: uniform extra delay; kill-every: abort every live peer connection at this interval, exercising the redial path; absent keys are off). drop, dup and kill-every lose or repeat messages, which the protocols do not survive (a token delivered twice is owned twice), so they require -reliable. A chaotic run prints its spec for replay")
	fs.BoolVar(&cfg.reliable, "reliable", false, "per-link ack/retransmit wrapper on peer traffic: restores reliable delivery (and so liveness) over a lossy fabric, at the cost of ack frames and retransmit buffers")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "token lease TTL (counter-loan/counter-no-loan only): leases renewed by a heartbeat every lease-ttl/3 let a steward regenerate tokens lost with a crashed peer, fencing the stale epoch (0 = leases off)")
}

func main() {
	var cfg daemonConfig
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrallocd:", err)
		os.Exit(1)
	}
}

// shutdownBound is how long a shutdown waits for the drain and the
// report before it closes the cluster.
const shutdownBound = 5 * time.Second

// stack is one daemon's layers as buildStack assembles them: the peer
// endpoint and the wrappers above it, the cluster's configuration and
// the client port's listener. Its listeners are bound; nothing connects
// or sends before serve.
type stack struct {
	cfg     daemonConfig
	local   []int
	peers   []string // serve points the peer endpoint here
	factory alg.Factory
	policy  serve.Policy
	tcp     *transport.TCP
	spec    transport.Spec
	chaos   *transport.Chaos    // nil without -chaos-spec
	rel     *transport.Reliable // nil without -reliable
	live    live.Config
	port    net.Listener // the client port; nil without -client-listen
	cluster *live.Cluster
	srv     *serve.Server
}

// buildStack refuses every flag combination the daemon cannot run, then
// binds the peer endpoint and the client port and assembles the stack
// over them: live → Reliable → Chaos → TCP.
func buildStack(cfg daemonConfig) (*stack, error) {
	st := &stack{cfg: cfg}
	var err error
	if st.factory, err = factoryFor(cfg.algName, cfg.leaseTTL); err != nil {
		return nil, err
	}
	if st.spec, err = transport.ParseSpec(cfg.chaosSpec); err != nil {
		return nil, fmt.Errorf("-chaos-spec: %w", err)
	}
	// A lost frame wedges the protocol and a repeated one hands a token
	// to two owners: only Reliable above the chaos keeps either from it.
	if (st.spec.Drop > 0 || st.spec.Dup > 0 || st.spec.KillEvery > 0) && !cfg.reliable {
		return nil, fmt.Errorf("-chaos-spec %s can lose or repeat peer messages: it needs -reliable", st.spec)
	}
	if st.policy, err = serve.ParsePolicy(cfg.policyStr); err != nil {
		return nil, err
	}
	if cfg.admitTarget != 0 && st.policy != serve.Adaptive {
		return nil, fmt.Errorf("-admit-target %v: -policy %s has no grant-latency target (only adaptive does)", cfg.admitTarget, st.policy)
	}
	if st.local, err = parseIDs(cfg.localCSV, cfg.nodes); err != nil {
		return nil, err
	}
	if st.peers = strings.Split(cfg.peersCSV, ","); cfg.peersCSV == "" || len(st.peers) != cfg.nodes {
		return nil, fmt.Errorf("-peers must list exactly %d addresses, got %d", cfg.nodes, len(st.peers))
	}
	if cfg.shards < 1 || cfg.shards > cfg.resources {
		return nil, fmt.Errorf("-shards %d outside [1, %d]", cfg.shards, cfg.resources)
	}
	if cfg.crossTwoPhase && cfg.shards == 1 {
		return nil, fmt.Errorf("-cross-two-phase: -shards 1 has no cross-shard set to acquire")
	}

	if st.tcp, err = transport.ListenTCP(cfg.listen, cfg.nodes, st.local...); err != nil {
		return nil, err
	}
	// The cluster's transport: the raw TCP endpoint, or — given a
	// -chaos-spec — that endpoint behind the fault-injecting wrapper.
	// -reliable stacks the ack/retransmit wrapper above it, so injected
	// drops and duplicates are healed below the protocol.
	var tr transport.Transport = st.tcp
	if st.spec != (transport.Spec{}) {
		st.chaos = transport.NewChaos(tr, st.spec.Seed)
		st.chaos.Apply(st.spec)
		tr = st.chaos
	}
	if cfg.reliable {
		st.rel = transport.NewReliable(tr)
		tr = st.rel
	}
	// Leases need a clock: tick each node three times per heartbeat
	// (the heartbeat period is a third of the TTL).
	var tick time.Duration
	if cfg.leaseTTL > 0 {
		if tick = cfg.leaseTTL / 9; tick <= 0 {
			tick = time.Millisecond
		}
	}
	st.live = live.Config{
		Nodes:              cfg.nodes,
		Resources:          cfg.resources,
		Shards:             cfg.shards,
		CrossShardTwoPhase: cfg.crossTwoPhase,
		Transport:          tr,
		Local:              st.local,
		Policy:             st.policy,
		AdmitTarget:        cfg.admitTarget,
		Tick:               tick,
		Wire:               transport.WireOptions{Delta: true},
	}
	if cfg.clientListen != "" {
		if st.port, err = net.Listen("tcp", cfg.clientListen); err != nil {
			tr.Close()
			return nil, fmt.Errorf("-client-listen %s: %w", cfg.clientListen, err)
		}
	}
	return st, nil
}

func factoryFor(name string, leaseTTL time.Duration) (alg.Factory, error) {
	a, ok := experiments.AlgorithmByName(name)
	if !ok {
		return nil, fmt.Errorf("-alg: unknown algorithm %q", name)
	}
	switch a {
	case experiments.SharedMem, experiments.Maddi, experiments.Manager:
		return nil, fmt.Errorf("-alg %s is simulator-only: its messages have no wire codec", name)
	}
	if leaseTTL > 0 {
		// Leases are a counter-algorithm feature: the token carries the
		// authority epoch and the steward mapping is derived from the
		// resource id, neither of which the comparators implement.
		var opt core.Options
		switch a {
		case experiments.WithLoan:
			opt = core.WithLoan()
		case experiments.WithoutLoan:
			opt = core.WithoutLoan()
		default:
			return nil, fmt.Errorf("-lease-ttl: -alg %s has no lease support (counter-loan and counter-no-loan only)", name)
		}
		opt.LeaseTTL = sim.Time(leaseTTL)
		return core.NewFactory(opt), nil
	}
	return experiments.Factory(a), nil
}

func parseIDs(csv string, n int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("-local: bad node id %q (cluster has %d nodes)", f, n)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-local: no node ids given")
	}
	return out, nil
}

// run builds the daemon's stack, serves until ctx is cancelled (main:
// SIGINT/SIGTERM), then drains and reports on out.
func run(ctx context.Context, cfg daemonConfig, out io.Writer) error {
	st, err := buildStack(cfg)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		// Profiles for live bench/debug runs: the default mux carries
		// net/http/pprof, served on a port bound here, so a bind error is
		// fatal rather than lost, and closed when run returns.
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			st.close()
			return fmt.Errorf("-pprof %s: %w", cfg.pprofAddr, err)
		}
		served := make(chan struct{})
		go func() { http.Serve(ln, nil); close(served) }()
		defer func() { ln.Close(); <-served }()
		fmt.Fprintf(out, "mrallocd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	return st.serve(ctx, out)
}

// close stops the client port and the cluster, or, before serve, closes
// what buildStack bound. Each layer's Close is idempotent.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	} else if st.port != nil {
		st.port.Close()
	}
	if st.cluster != nil {
		st.cluster.Close()
	} else {
		st.live.Transport.Close()
	}
}

// serve points the peer endpoint at st.peers, starts the cluster on the
// assembled transport and opens the client port onto it; it serves
// until ctx is cancelled, then drains, reports on out and closes the
// stack.
func (st *stack) serve(ctx context.Context, out io.Writer) error {
	defer st.close()
	if err := st.tcp.Connect(st.peers); err != nil {
		return err
	}
	cluster, err := live.New(st.live, st.factory)
	if err != nil {
		return err
	}
	st.cluster = cluster
	cfg := st.cfg
	if st.port != nil {
		scfg := serve.ServerConfig{
			Listener:  st.port,
			Nodes:     cfg.nodes,
			Resources: cfg.resources,
			Shards:    cfg.shards,
			Local:     st.local,
			Open:      func(node int) (serve.BackendSession, error) { return cluster.NewSession(node) },
		}
		if st.policy == serve.Adaptive {
			// The adaptive load oracle: the client port consults each
			// node's self-tuned bound before queueing and reports the
			// denials back into its shed-rate tracking.
			scfg.Overloaded = cluster.Overloaded
			scfg.NoteShed = cluster.NoteShed
		}
		if st.srv, err = serve.NewServer(scfg); err != nil {
			return err
		}
	}
	if st.chaos != nil {
		fmt.Fprintf(out, "mrallocd: chaos armed, replay with -chaos-spec %s\n", st.spec)
	}
	if cfg.shards > 1 {
		fmt.Fprintf(out, "mrallocd: hosting nodes %v of %d (%s, M=%d, G=%d shards) on %s\n",
			st.local, cfg.nodes, cfg.algName, cfg.resources, cfg.shards, st.tcp.Addr())
	} else {
		fmt.Fprintf(out, "mrallocd: hosting nodes %v of %d (%s, M=%d) on %s\n",
			st.local, cfg.nodes, cfg.algName, cfg.resources, st.tcp.Addr())
	}
	if st.srv != nil {
		fmt.Fprintf(out, "mrallocd: client port on %s (policy %s)\n", st.srv.Addr(), st.policy)
	}

	<-ctx.Done()
	fmt.Fprintln(out, "mrallocd: signal received, shutting down")
	// Graceful exit: hand off every token our nodes own (to a waiting
	// requester or the resource's steward) before the process dies, so
	// peers never have to wait out a lease expiry and regeneration for
	// resources we were holding. The drain and the report wait on the
	// shard runners, and a runner sending to a daemon that has exited
	// already waits out the endpoint's dial window, once per message:
	// past shutdownBound the cluster closes, which cuts every wait short.
	cut := time.AfterFunc(shutdownBound, cluster.Close)
	if cluster.Drain() {
		fmt.Fprintln(out, "mrallocd: drained — owned tokens handed off to peers")
	}
	printStats(out, cluster.Stats())
	printRecovery(out, cluster, st.local, st.rel)
	if !cut.Stop() {
		fmt.Fprintf(out, "mrallocd: shutdown cut short after %v: a peer is unreachable\n", shutdownBound)
	}
	return nil
}

// printRecovery reports the fault-recovery machinery's work: the
// reliable wrapper's retransmission ledger (when -reliable is armed)
// and the counter-algorithm protocol counters aggregated over the
// local nodes — one row per shard on a sharded cluster, plus the
// aggregate line the flat daemon has always printed.
func printRecovery(out io.Writer, cluster *live.Cluster, local []int, rel *transport.Reliable) {
	if rel != nil {
		s := rel.RelStats()
		fmt.Fprintf(out, "reliable link: retransmits=%d acked=%d dups-dropped=%d gaps=%d acks-sent=%d\n",
			s.Retransmits, s.Acked, s.DupsDropped, s.Gaps, s.AcksSent)
	}
	g := cluster.Shards()
	perShard := make([]core.Counters, g)
	var agg core.Counters
	seen := false
	for s := 0; s < g; s++ {
		for _, id := range local {
			closed := !cluster.InspectShard(s, id, func(n alg.Node) {
				if nd, ok := n.(*core.Node); ok {
					perShard[s].Add(nd.Counters())
					seen = true
				}
			})
			if closed {
				return // fn may still run: read nothing it writes
			}
		}
		agg.Add(perShard[s])
	}
	if !seen {
		return
	}
	if g > 1 {
		smap := cluster.ShardLayout()
		for s := 0; s < g; s++ {
			lo := int(smap.Start(s))
			fmt.Fprintf(out, "  shard %d [%d..%d]: %s\n", s, lo, lo+smap.Size(s)-1, perShard[s])
		}
		fmt.Fprintf(out, "counters (all shards): %s\n", agg)
	}
	if agg.Heartbeats > 0 || agg.Regens > 0 || agg.Fenced > 0 || agg.Drained > 0 {
		fmt.Fprintf(out, "leases: heartbeats=%d grants=%d expiries=%d regens=%d fenced=%d drained=%d\n",
			agg.Heartbeats, agg.LeaseGrants, agg.LeaseExpiries, agg.Regens, agg.Fenced, agg.Drained)
	}
}

func printStats(out io.Writer, stats map[string]int64) {
	kinds := make([]string, 0, len(stats))
	var total int64
	for k, v := range stats {
		kinds = append(kinds, k)
		total += v
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "messages sent: total=%d\n", total)
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-16s %d\n", k, stats[k])
	}
}
