// Command mrallocd runs one process of a multi-process mralloc
// cluster: it hosts one or more protocol nodes, listens for peer
// traffic on TCP, and either serves passively (routing and owning
// tokens on behalf of the cluster) or drives a synthetic workload and
// reports what it measured.
//
// A 3-node loopback cluster, one daemon per node:
//
//	mrallocd -nodes 3 -resources 16 -local 0 -listen 127.0.0.1:7000 \
//	         -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -ops 50 &
//	mrallocd -nodes 3 -resources 16 -local 1 -listen 127.0.0.1:7001 \
//	         -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -ops 50 &
//	mrallocd -nodes 3 -resources 16 -local 2 -listen 127.0.0.1:7002 \
//	         -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -ops 50
//
// Every daemon must be given the same -nodes, -resources, -alg and
// -peers; each hosts a disjoint -local set covering all nodes. With
// -ops 0 (default) a daemon participates until SIGINT/SIGTERM; with
// -ops K it performs K random acquire/release cycles per local node,
// prints per-kind message statistics, and exits. Shutdown is graceful
// either way: the daemon drains first, handing every token it owns to
// a waiting peer or the resource's steward, so the surviving cluster
// never waits out a lease expiry for resources this process held.
//
// With -client-listen the daemon additionally opens a client port:
// external processes speak the client wire protocol (internal/serve)
// to it, each connection multiplexing any number of concurrent
// acquisition sessions onto the hosted nodes through the admission
// scheduler (-policy picks the ordering). The example above plus
//
//	mrallocd ... -client-listen 127.0.0.1:8000 -policy ssf
//
// serves clients on 127.0.0.1:8000 while peering on -listen.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // -pprof exposes the default mux's profiles
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	ops, phi         int
	think            time.Duration
	seed             int64
	linger           time.Duration
	clientListen     string
	policyStr        string
	maxQueue         int
	admitTarget      time.Duration
	pprofAddr        string
	wireDelta        bool
	wireWindow       int64
	egressBudget     int64
	chaosDrop        float64
	chaosDup         float64
	chaosDelay       time.Duration
	chaosDelayMax    time.Duration
	chaosKillEvery   time.Duration
	chaosSeed        int64
	chaosSpec        string
	reliable         bool
	leaseTTL         time.Duration
	hbInterval       time.Duration
}

// registerFlags declares the daemon's whole flag surface on fs; the
// flag-surface test renders it from here.
func registerFlags(fs *flag.FlagSet, cfg *daemonConfig) {
	fs.IntVar(&cfg.nodes, "nodes", 3, "total number of nodes N in the cluster")
	fs.IntVar(&cfg.resources, "resources", 16, "number of resources M")
	fs.IntVar(&cfg.shards, "shards", 1, "split the resource universe into this many contiguous shards, each with its own allocator instances and event loops; every daemon of the cluster must agree (1 = flat)")
	fs.BoolVar(&cfg.crossTwoPhase, "cross-two-phase", false, "acquire cross-shard sets with the parallel two-phase scheme (timeout, hand back, retry) instead of ordered shard locking")
	fs.StringVar(&cfg.algName, "alg", "counter-loan", "algorithm: counter-loan, counter-no-loan, incremental, bouabdallah")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7000", "TCP listen address of this process")
	fs.StringVar(&cfg.peersCSV, "peers", "", "comma-separated list of N addresses; entry i hosts node i")
	fs.StringVar(&cfg.localCSV, "local", "0", "comma-separated node ids hosted by this process")
	fs.IntVar(&cfg.ops, "ops", 0, "random acquire/release cycles per local node (0 = serve until signal)")
	fs.StringVar(&cfg.clientListen, "client-listen", "", "TCP address of the client port (empty = no client port)")
	fs.StringVar(&cfg.policyStr, "policy", "fifo", "admission policy for multiplexed sessions: fifo, ssf, edf, adaptive")
	fs.IntVar(&cfg.maxQueue, "max-queue", 0, "deny client acquires with ErrOverloaded once a node has this many waiting (0 = unbounded)")
	fs.DurationVar(&cfg.admitTarget, "admit-target", 0, "adaptive policy's grant-latency target; its self-tuned bound sheds client acquires that cannot meet it (0 = built-in default; other policies ignore it)")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	fs.BoolVar(&cfg.wireDelta, "wire-delta", true, "delta-encode token state on peer connections; every daemon of the cluster must run a delta-aware build (pass =false to interoperate with pre-delta peers)")
	fs.Int64Var(&cfg.wireWindow, "wire-window", 0, "receive window in bytes announced to peers (0 = default, negative = disable crediting)")
	fs.Int64Var(&cfg.egressBudget, "egress-budget", 0, "client-port response bytes queued per connection before the client is shed (0 = default, negative = unbounded)")
	fs.Float64Var(&cfg.chaosDrop, "chaos-drop", 0, "fault injection: probability in [0,1] of dropping each outgoing peer message")
	fs.Float64Var(&cfg.chaosDup, "chaos-dup", 0, "fault injection: probability in [0,1] of duplicating each outgoing peer message (breaks the no-duplication hypothesis — expect safety-only behavior)")
	fs.DurationVar(&cfg.chaosDelay, "chaos-delay", 0, "fault injection: minimum extra delay per outgoing peer message")
	fs.DurationVar(&cfg.chaosDelayMax, "chaos-delay-max", 0, "fault injection: maximum extra delay per outgoing peer message (0 with -chaos-delay set means fixed delay)")
	fs.DurationVar(&cfg.chaosKillEvery, "chaos-kill-every", 0, "fault injection: forcibly abort every live peer connection at this interval, exercising the redial path (0 = never)")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 1, "fault injection: RNG seed for the per-link fault schedules")
	fs.StringVar(&cfg.chaosSpec, "chaos-spec", "", "fault injection: hex-encoded chaos spec (as printed by a prior run) — replays that exact fault configuration, overriding the individual -chaos-* knobs")
	fs.BoolVar(&cfg.reliable, "reliable", false, "per-link ack/retransmit wrapper on peer traffic: restores reliable delivery (and so liveness) over a lossy fabric, at the cost of ack frames and retransmit buffers")
	fs.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "token lease TTL (counter-loan/counter-no-loan only): heartbeat-tracked leases let a steward regenerate tokens lost with a crashed peer, fencing the stale epoch (0 = leases off)")
	fs.DurationVar(&cfg.hbInterval, "hb-interval", 0, "lease heartbeat interval (0 = lease-ttl/3); must be well below -lease-ttl")
	fs.DurationVar(&cfg.linger, "linger", 5*time.Second, "after the workload, keep serving peers this long before exiting (0 = until signal); legacy safety net from before the shutdown drain — tokens are now handed off explicitly, lingering just catches stragglers mid-handoff")
	fs.IntVar(&cfg.phi, "phi", 4, "maximum resources per request (workload mode)")
	fs.DurationVar(&cfg.think, "think", time.Millisecond, "mean pause between requests (workload mode)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
}

func main() {
	var cfg daemonConfig
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mrallocd:", err)
		os.Exit(1)
	}
}

func factoryFor(name string, leaseTTL, hbInterval time.Duration) (alg.Factory, error) {
	if leaseTTL > 0 {
		// Leases are a counter-algorithm feature: the token carries the
		// authority epoch and the steward mapping is derived from the
		// resource id, neither of which the comparators implement.
		var opt core.Options
		switch name {
		case "counter-loan":
			opt = core.WithLoan()
		case "counter-no-loan":
			opt = core.WithoutLoan()
		default:
			return nil, fmt.Errorf("-lease-ttl: algorithm %q has no lease support (counter-loan and counter-no-loan only)", name)
		}
		opt.LeaseTTL = sim.Time(leaseTTL)
		opt.HeartbeatInterval = sim.Time(hbInterval)
		return core.NewFactory(opt), nil
	}
	switch name {
	case "counter-loan":
		return experiments.Factory(experiments.WithLoan), nil
	case "counter-no-loan":
		return experiments.Factory(experiments.WithoutLoan), nil
	case "incremental":
		return experiments.Factory(experiments.Incremental), nil
	case "bouabdallah":
		return experiments.Factory(experiments.Bouabdallah), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
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
			return nil, fmt.Errorf("bad node id %q (cluster has %d nodes)", f, n)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no local node ids given")
	}
	return out, nil
}

func run(cfg daemonConfig) error {
	nodes, resources := cfg.nodes, cfg.resources
	ops, phi, think, seed, linger := cfg.ops, cfg.phi, cfg.think, cfg.seed, cfg.linger
	factory, err := factoryFor(cfg.algName, cfg.leaseTTL, cfg.hbInterval)
	if err != nil {
		return err
	}
	policy, err := serve.ParsePolicy(cfg.policyStr)
	if err != nil {
		return err
	}
	local, err := parseIDs(cfg.localCSV, nodes)
	if err != nil {
		return err
	}
	peers := strings.Split(cfg.peersCSV, ",")
	if cfg.peersCSV == "" || len(peers) != nodes {
		return fmt.Errorf("-peers must list exactly %d addresses, got %d", nodes, len(peers))
	}
	if phi < 1 || phi > resources {
		return fmt.Errorf("-phi %d outside [1, %d]", phi, resources)
	}
	if cfg.shards < 1 || cfg.shards > resources {
		return fmt.Errorf("-shards %d outside [1, %d]", cfg.shards, resources)
	}
	if cfg.pprofAddr != "" {
		// Profiles for live bench/debug runs: the default mux carries
		// net/http/pprof. Failure to bind is fatal — a daemon asked to
		// be profiled silently not serving profiles wastes the session.
		errc := make(chan error, 1)
		go func() { errc <- http.ListenAndServe(cfg.pprofAddr, nil) }()
		select {
		case err := <-errc:
			return fmt.Errorf("-pprof %s: %w", cfg.pprofAddr, err)
		case <-time.After(100 * time.Millisecond):
			fmt.Printf("mrallocd: pprof on http://%s/debug/pprof/\n", cfg.pprofAddr)
		}
	}

	tr, err := transport.ListenTCP(cfg.listen, nodes, local...)
	if err != nil {
		return err
	}
	if err := tr.Connect(peers); err != nil {
		tr.Close()
		return err
	}
	// The cluster's transport: the raw TCP endpoint, or — when any
	// -chaos-* knob is armed — that endpoint behind the fault-injecting
	// wrapper, with the spec hex printed so the run can be replayed.
	clusterTr, err := chaosWrap(cfg, tr)
	if err != nil {
		tr.Close()
		return err
	}
	// -reliable stacks the ack/retransmit wrapper above the (possibly
	// chaotic) endpoint: live → Reliable → Chaos → TCP, so injected
	// drops and duplicates are healed below the protocol.
	var rel *transport.Reliable
	if cfg.reliable {
		rel = transport.NewReliable(clusterTr)
		clusterTr = rel
	}
	// Leases need a clock: tick each node a few times per heartbeat.
	var tick time.Duration
	if cfg.leaseTTL > 0 {
		hb := cfg.hbInterval
		if hb <= 0 {
			hb = cfg.leaseTTL / 3
		}
		if tick = hb / 3; tick <= 0 {
			tick = time.Millisecond
		}
	}
	cluster, err := live.New(live.Config{
		Nodes:              nodes,
		Resources:          resources,
		Shards:             cfg.shards,
		CrossShardTwoPhase: cfg.crossTwoPhase,
		Transport:          clusterTr,
		Local:              local,
		Policy:             policy,
		AdmitTarget:        cfg.admitTarget,
		Tick:               tick,
		Wire:               transport.WireOptions{Delta: cfg.wireDelta, Window: cfg.wireWindow},
	}, factory)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if cfg.shards > 1 {
		fmt.Printf("mrallocd: hosting nodes %v of %d (%s, M=%d, G=%d shards) on %s\n",
			local, nodes, cfg.algName, resources, cfg.shards, tr.Addr())
	} else {
		fmt.Printf("mrallocd: hosting nodes %v of %d (%s, M=%d) on %s\n",
			local, nodes, cfg.algName, resources, tr.Addr())
	}

	if cfg.clientListen != "" {
		scfg := serve.ServerConfig{
			Listen:       cfg.clientListen,
			Nodes:        nodes,
			Resources:    resources,
			Shards:       cfg.shards,
			Local:        local,
			MaxQueue:     cfg.maxQueue,
			EgressBudget: cfg.egressBudget,
			Open:         func(node int) (serve.BackendSession, error) { return cluster.NewSession(node) },
		}
		if policy == serve.Adaptive {
			// The adaptive load oracle: the client port consults each
			// node's self-tuned bound before queueing and reports the
			// denials back into its shed-rate tracking.
			scfg.Overloaded = cluster.Overloaded
			scfg.NoteShed = cluster.NoteShed
		}
		srv, err := serve.NewServer(scfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("mrallocd: client port on %s (policy %s, max-queue %d)\n", srv.Addr(), policy, cfg.maxQueue)
	}

	// Graceful exit: hand off every token our nodes own (to a waiting
	// requester or the resource's steward) before the process dies, so
	// peers never have to wait out a lease expiry and regeneration for
	// resources we were holding.
	shutdown := func() {
		if cluster.Drain() {
			fmt.Println("mrallocd: drained — owned tokens handed off to peers")
		}
		printStats(cluster.Stats())
		printRecovery(cluster, local, rel)
	}

	if ops <= 0 {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("mrallocd: signal received, shutting down")
		shutdown()
		return nil
	}

	// Workload mode: every local node performs ops random cycles.
	var wg sync.WaitGroup
	errs := make(chan error, len(local))
	startAll := time.Now()
	for _, id := range local {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)*1000003))
			for i := 0; i < ops; i++ {
				k := 1 + rng.Intn(phi)
				rs := make(map[int]bool, k)
				for len(rs) < k {
					rs[rng.Intn(resources)] = true
				}
				ids := make([]int, 0, k)
				for r := range rs {
					ids = append(ids, r)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				release, err := cluster.Acquire(ctx, id, ids...)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("node %d: %w", id, err)
					return
				}
				release()
				if think > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() * float64(think)))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(startAll)
	fmt.Printf("mrallocd: %d nodes × %d ops in %v (%.0f acquires/s)\n",
		len(local), ops, elapsed.Round(time.Millisecond),
		float64(len(local)*ops)/elapsed.Seconds())
	printStats(cluster.Stats())

	// Keep serving: peers may still route requests through our nodes or
	// be mid-handshake on tokens we own. The shutdown drain hands off
	// ownership explicitly; lingering first lets in-flight traffic
	// settle so the drain finds stable queues.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if linger > 0 {
		fmt.Printf("mrallocd: workload done, serving peers for %v\n", linger)
		select {
		case <-sig:
		case <-time.After(linger):
		}
	} else {
		fmt.Println("mrallocd: workload done, serving peers until signal")
		<-sig
	}
	// Serving peers sends more messages (token handoffs); report the
	// final counters so the numbers across daemons add up.
	fmt.Println("mrallocd: final counters after serving peers:")
	shutdown()
	return nil
}

// printRecovery reports the fault-recovery machinery's work: the
// reliable wrapper's retransmission ledger (when -reliable is armed)
// and the counter-algorithm protocol counters aggregated over the
// local nodes — one row per shard on a sharded cluster, plus the
// aggregate line the flat daemon has always printed.
func printRecovery(cluster *live.Cluster, local []int, rel *transport.Reliable) {
	if rel != nil {
		s := rel.RelStats()
		fmt.Printf("reliable link: retransmits=%d acked=%d dups-dropped=%d gaps=%d acks-sent=%d\n",
			s.Retransmits, s.Acked, s.DupsDropped, s.Gaps, s.AcksSent)
	}
	g := cluster.Shards()
	perShard := make([]core.Counters, g)
	var agg core.Counters
	seen := false
	for s := 0; s < g; s++ {
		for _, id := range local {
			cluster.InspectShard(s, id, func(n alg.Node) {
				if nd, ok := n.(*core.Node); ok {
					perShard[s].Add(nd.Counters())
					seen = true
				}
			})
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
			fmt.Printf("  shard %d [%d..%d]: %s\n", s, lo, lo+smap.Size(s)-1, perShard[s])
		}
		fmt.Printf("counters (all shards): %s\n", agg)
	}
	if agg.Heartbeats > 0 || agg.Regens > 0 || agg.Fenced > 0 || agg.Drained > 0 {
		fmt.Printf("leases: heartbeats=%d grants=%d expiries=%d regens=%d fenced=%d drained=%d\n",
			agg.Heartbeats, agg.LeaseGrants, agg.LeaseExpiries, agg.Regens, agg.Fenced, agg.Drained)
	}
}

// chaosWrap wraps the peer transport in a fault-injecting
// transport.Chaos when any -chaos-* knob is armed. A -chaos-spec hex
// string (as printed by a previous chaotic run) overrides the
// individual knobs and replays that exact fault configuration.
func chaosWrap(cfg daemonConfig, tr *transport.TCP) (transport.Transport, error) {
	spec := transport.Spec{
		Seed: cfg.chaosSeed,
		Faults: transport.Faults{
			Drop:     cfg.chaosDrop,
			Dup:      cfg.chaosDup,
			DelayMin: cfg.chaosDelay,
			DelayMax: cfg.chaosDelayMax,
		},
		KillEvery: cfg.chaosKillEvery,
	}
	// -chaos-delay alone means a fixed delay of that much.
	if spec.Faults.DelayMax < spec.Faults.DelayMin {
		spec.Faults.DelayMax = spec.Faults.DelayMin
	}
	if cfg.chaosSpec != "" {
		var err error
		spec, err = transport.ParseSpecHex(cfg.chaosSpec)
		if err != nil {
			return nil, fmt.Errorf("-chaos-spec: %w", err)
		}
	}
	if spec.Faults.Drop == 0 && spec.Faults.Dup == 0 &&
		spec.Faults.DelayMax == 0 && spec.KillEvery == 0 {
		return tr, nil // nothing armed: hand the raw endpoint through
	}
	// Round-tripping through the encoding validates the flag values
	// (probability ranges, delay ordering) with the same rules replay
	// uses, so a bad flag fails here instead of surprising a replay.
	if _, err := transport.ParseSpec(spec.Append(nil)); err != nil {
		return nil, fmt.Errorf("chaos flags: %w", err)
	}
	ch := transport.NewChaos(tr, spec.Seed)
	ch.Apply(spec)
	fmt.Printf("mrallocd: chaos armed, replay with -chaos-spec %s\n", spec)
	return ch, nil
}

func printStats(stats map[string]int64) {
	kinds := make([]string, 0, len(stats))
	var total int64
	for k, v := range stats {
		kinds = append(kinds, k)
		total += v
	}
	sort.Strings(kinds)
	fmt.Printf("messages sent: total=%d\n", total)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, stats[k])
	}
}
