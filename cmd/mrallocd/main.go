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
// Every daemon must be given the same -nodes, -resources, -shards,
// -alg, -lease-ttl, -reliable and -peers; each hosts a disjoint -local
// set covering all nodes. The handshake enforces all of them but -peers
// and -local: a peer daemon that differs in one is refused before any
// frame crosses, and each daemon prints the refusal, naming both
// values, on stderr. A daemon participates until SIGINT/SIGTERM.
// Shutdown is graceful: the daemon drains first, handing every token it
// owns to a waiting peer or the resource's steward, so the surviving
// cluster never waits out a lease expiry for resources this process
// held; then it prints per-kind message statistics and exits.
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
	"mralloc/internal/stack"
	"mralloc/internal/transport"
)

// daemonConfig carries the parsed flags into run: the stack's Spec and
// the profiling port.
type daemonConfig struct {
	stack.Spec
	pprofAddr string
}

// registerFlags declares the daemon's whole flag surface on fs; the
// flag-surface test renders it from here.
func registerFlags(fs *flag.FlagSet, cfg *daemonConfig) {
	cfg.Peers, cfg.Local = []string{""}, []int{0} // the defaults of -peers and -local
	fs.IntVar(&cfg.Nodes, "nodes", 3, "total number of nodes N in the cluster")
	fs.IntVar(&cfg.Resources, "resources", 16, "number of resources M")
	fs.IntVar(&cfg.Shards, "shards", 1, "split the resource universe into this many contiguous shards, each with its own allocator instances and event loops; every daemon of the cluster must agree (1 = flat)")
	fs.StringVar(&cfg.Alg, "alg", "counter-loan", "algorithm: "+strings.Join(experiments.AlgorithmNames(), ", ")+" (shared-memory, maddi and manager are simulator-only); every daemon of the cluster must agree")
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:7000", "TCP listen address of this process")
	fs.Func("peers", "comma-separated list of N addresses; entry i hosts node i", func(v string) error {
		cfg.Peers = strings.Split(v, ",")
		return nil
	})
	fs.Func("local", "comma-separated node ids hosted by this process (default 0)", func(v string) error {
		cfg.Local = nil
		for _, f := range strings.Split(v, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Local = append(cfg.Local, id)
		}
		return nil
	})
	fs.StringVar(&cfg.ClientListen, "client-listen", "", "TCP address of the client port (empty = no client port)")
	fs.StringVar((*string)(&cfg.Policy), "policy", "fifo", "admission policy for multiplexed sessions: fifo, ssf, edf, adaptive")
	fs.DurationVar(&cfg.AdmitTarget, "admit-target", 0, "adaptive policy's grant-latency target; its self-tuned bound sheds client acquires that cannot meet it (0 = built-in default; -policy adaptive only)")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	fs.StringVar(&cfg.ChaosSpec, "chaos-spec", "", "fault injection on outgoing peer messages, as key=value pairs: seed=7,drop=0.02,dup=0.02,delay=100us..1ms,kill-every=2s (drop/dup: probability in [0,1] per message; delay: uniform extra delay; kill-every: abort every live peer connection at this interval, exercising the redial path; absent keys are off). drop, dup and kill-every lose or repeat messages, which the protocols do not survive (a token delivered twice is owned twice), so they require -reliable. A chaotic run prints its spec for replay")
	fs.BoolVar(&cfg.Reliable, "reliable", false, "per-link ack/retransmit wrapper on peer traffic: restores reliable delivery (and so liveness) over a lossy fabric, at the cost of ack frames and retransmit buffers; every daemon of the cluster must agree")
	fs.DurationVar(&cfg.LeaseTTL, "lease-ttl", 0, "token lease TTL (counter-loan/counter-no-loan only): leases renewed by a heartbeat every lease-ttl/3 let a steward regenerate tokens lost with a crashed peer, fencing the stale epoch (0 = leases off); every daemon of the cluster must agree")
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

// run builds the daemon's stack, serves until ctx is cancelled (main:
// SIGINT/SIGTERM), then drains and reports on out.
func run(ctx context.Context, cfg daemonConfig, out io.Writer) error {
	st, err := stack.Build(cfg.Spec)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		// Profiles for live bench/debug runs: the default mux carries
		// net/http/pprof, served on a port bound here, so a bind error is
		// fatal rather than lost, and closed when run returns.
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			st.Close()
			return fmt.Errorf("-pprof %s: %w", cfg.pprofAddr, err)
		}
		served := make(chan struct{})
		go func() { http.Serve(ln, nil); close(served) }()
		defer func() { ln.Close(); <-served }()
		fmt.Fprintf(out, "mrallocd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	cluster, err := st.Start()
	if err != nil {
		st.Close()
		return err
	}
	return serveStack(ctx, st, cluster, out)
}

// serveStack opens the client port of st onto its started cluster; it
// serves until ctx is cancelled, then drains, reports on out and closes
// the stack.
func serveStack(ctx context.Context, st *stack.Stack, cluster *live.Cluster, out io.Writer) error {
	defer st.Close()
	spec := st.Spec
	var err error
	var srv *serve.Server
	if st.Port != nil {
		scfg := serve.ServerConfig{
			Listener:  st.Port,
			Nodes:     spec.Nodes,
			Resources: spec.Resources,
			Shards:    spec.Shards,
			Local:     spec.Local,
			Open:      func(node int) (serve.BackendSession, error) { return cluster.NewSession(node) },
		}
		if spec.Policy == serve.Adaptive {
			// The adaptive load oracle: the client port consults each
			// node's self-tuned bound before queueing and reports the
			// denials back into its shed-rate tracking.
			scfg.Overloaded = cluster.Overloaded
			scfg.NoteShed = cluster.NoteShed
		}
		if srv, err = serve.NewServer(scfg); err != nil {
			return err
		}
		defer srv.Close()
	}
	if st.Chaos != nil {
		fmt.Fprintf(out, "mrallocd: chaos armed, replay with -chaos-spec %s\n", spec.ChaosSpec)
	}
	shards := ""
	if spec.Shards > 1 {
		shards = fmt.Sprintf(", G=%d shards", spec.Shards)
	}
	fmt.Fprintf(out, "mrallocd: hosting nodes %v of %d (%s, M=%d%s) on %s\n",
		spec.Local, spec.Nodes, spec.Alg, spec.Resources, shards, st.TCP.Addr())
	if srv != nil {
		fmt.Fprintf(out, "mrallocd: client port on %s (policy %s)\n", srv.Addr(), spec.Policy)
	}

	<-ctx.Done()
	fmt.Fprintln(out, "mrallocd: signal received, shutting down")
	// Graceful exit: hand off every token our nodes own (to a waiting
	// requester or the resource's steward) before the process dies, so
	// peers never have to wait out a lease expiry and regeneration for
	// resources we were holding. The drain and the report wait on the
	// shard runners, and the first send to a daemon that has exited
	// already waits out the endpoint's dial window (later ones dial once):
	// past shutdownBound the cluster closes, which cuts every wait short,
	// and the report then reads the stopped nodes.
	cut := time.AfterFunc(shutdownBound, cluster.Close)
	if cluster.Drain() {
		fmt.Fprintln(out, "mrallocd: drained — owned tokens handed off to peers")
	}
	printStats(out, cluster.Stats())
	printRecovery(out, cluster, spec.Local, st.Rel)
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
