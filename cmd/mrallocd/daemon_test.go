package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/stack"
)

// lossySpec loses, repeats, delays and cuts peer traffic; delaySpec only
// delays it.
const (
	lossySpec = "seed=7,drop=0.02,dup=0.02,delay=100us..1ms,kill-every=300ms"
	delaySpec = "delay=100us..1ms"
)

// axes are the six stack-shaping flags TestStackMatrix varies: each
// value is a label for the cell's name and the arguments it adds to
// both daemons' command lines. 4 × 2 × 2 × 3 × 2 × 2 = 192 stacks.
var axes = [6][]struct{ label, args string }{
	{{"counter-loan", "-alg=counter-loan"}, {"counter-no-loan", "-alg=counter-no-loan"},
		{"incremental", "-alg=incremental"}, {"bouabdallah", "-alg=bouabdallah-laforest"}},
	{{"g1", "-shards=1"}, {"g4", "-shards=4"}},
	{{"raw", ""}, {"reliable", "-reliable"}},
	{{"calm", ""}, {"delay", "-chaos-spec=" + delaySpec}, {"lossy", "-chaos-spec=" + lossySpec}},
	{{"nolease", ""}, {"lease", "-lease-ttl=250ms"}},
	{{"fifo", "-policy=fifo"}, {"adaptive", "-policy=adaptive"}},
}

const (
	axAlg = iota
	axShards
	axReliable
	axChaos
	axLease
	axPolicy
)

// cell is one stack of the matrix: a value index per axis.
type cell [6]int

func (c cell) name() string {
	labels := make([]string, len(c))
	for a, v := range c {
		labels[a] = axes[a][v].label
	}
	return strings.Join(labels, "/")
}

func (c cell) args() []string {
	var args []string
	for a, v := range c {
		args = append(args, strings.Fields(axes[a][v].args)...)
	}
	return args
}

// refusal is the flags of the rule stack.Build refuses c by, or nil:
// leases on a comparator, and chaos that can lose or repeat a message
// without -reliable. A cell both rules refuse names the flags of one.
func (c cell) refusal() [][]string {
	var rules [][]string
	if c[axLease] == 1 && c[axAlg] >= 2 {
		rules = append(rules, []string{"-alg", "-lease-ttl"})
	}
	if c[axChaos] == 2 && c[axReliable] == 0 {
		rules = append(rules, []string{"-chaos-spec", "-reliable"})
	}
	return rules
}

// allCells is the full product, in axis order.
func allCells() []cell {
	cells := []cell{{}}
	for a := range axes {
		var next []cell
		for _, c := range cells {
			for v := range axes[a] {
				c[a] = v
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

// pairwise picks cells of all, greedily, until every value pair of any
// two axes is in one of them: a covering array of strength 2. It covers
// what it can with stacks that run before it turns to refused ones, so
// a pair that some stack runs is run in -short too.
func pairwise(all []cell) []cell {
	type pair struct{ a, va, b, vb int }
	pairs := func(c cell, do func(pair)) {
		for a := range c {
			for b := a + 1; b < len(c); b++ {
				do(pair{a, c[a], b, c[b]})
			}
		}
	}
	missing := map[pair]bool{}
	var runs []cell
	for _, c := range all {
		pairs(c, func(p pair) { missing[p] = true })
		if c.refusal() == nil {
			runs = append(runs, c)
		}
	}
	var picked []cell
	for _, pool := range [][]cell{runs, all} {
		for {
			best, gain := cell{}, 0
			for _, c := range pool {
				g := 0
				pairs(c, func(p pair) {
					if missing[p] {
						g++
					}
				})
				if g > gain {
					best, gain = c, g
				}
			}
			if gain == 0 {
				break
			}
			pairs(best, func(p pair) { delete(missing, p) })
			picked = append(picked, best)
		}
	}
	return picked
}

// TestStackMatrix builds every stack the daemon's stack-shaping flags
// make — -alg, -shards, -reliable, -chaos-spec, -lease-ttl, -policy —
// from real command lines through registerFlags and stack.Build, plus
// three refusals outside that product. A refused stack must name every
// flag of its rule. An accepted one runs as two in-process daemons of
// two nodes each (N = 4, M = 16), stormed through their client ports
// (runPair). -short runs a pairwise covering array of the product
// instead of all of it.
//
// Then the pairs whose two command lines differ in one flag. A local
// flag may differ, and the mixed pair runs the storm. A cluster-wide one
// may not: the handshake keeps the two daemons apart (runMismatch).
func TestStackMatrix(t *testing.T) {
	cells := allCells()
	if testing.Short() {
		cells = pairwise(cells)
	}
	t.Logf("%d cells", len(cells))
	for _, c := range cells {
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			runPair(t, both(c.args()), c.refusal(), c[axShards] > 0)
		})
	}
	for _, r := range []struct {
		name  string
		args  []string
		flags []string
	}{
		{"admit-target-fifo", []string{"-policy=fifo", "-admit-target=50ms"}, []string{"-admit-target", "-policy"}},
		// lossySpec sets every lossy key at once; each is refused alone.
		{"dup-raw", []string{"-chaos-spec=dup=0.02"}, []string{"-chaos-spec", "-reliable"}},
		{"kill-every-raw", []string{"-chaos-spec=kill-every=1s"}, []string{"-chaos-spec", "-reliable"}},
	} {
		t.Run("refused/"+r.name, func(t *testing.T) { runPair(t, both(r.args), [][]string{r.flags}, false) })
	}
	for _, r := range []struct {
		name string
		args [2][]string
	}{
		{"policy", [2][]string{{"-policy=fifo"}, {"-policy=adaptive"}}},
		{"admit-target", [2][]string{{"-policy=adaptive", "-admit-target=50ms"}, {"-policy=adaptive"}}},
		{"chaos-spec", [2][]string{{"-chaos-spec=" + delaySpec}, nil}},
	} {
		t.Run("mixed/"+r.name, func(t *testing.T) {
			t.Parallel()
			runPair(t, r.args, nil, false)
		})
	}
	for _, r := range []struct{ name, a, b string }{
		{"alg", "-alg=counter-loan", "-alg=incremental"},
		{"lease-ttl", "-lease-ttl=250ms", "-lease-ttl=4s"},
		{"reliable", "-reliable=true", "-reliable=false"},
	} {
		t.Run("mismatch/"+r.name, func(t *testing.T) {
			t.Parallel()
			runMismatch(t, r.a, r.b)
		})
	}
}

// both is one daemon's extra arguments given to each daemon of a pair.
func both(args []string) [2][]string { return [2][]string{args, args} }

// TestDaemonPairServesAndDrains assembles two whole daemons from their
// default command lines, storms both client ports so tokens cross the
// link in both directions, then cancels them: each must drain, report
// and return nil. A break anywhere in the daemon wiring (flags →
// transport → live → client port → shutdown) fails here.
func TestDaemonPairServesAndDrains(t *testing.T) {
	for i, out := range runPair(t, [2][]string{}, nil, false) {
		if !strings.Contains(out, "drained — owned tokens handed off") {
			t.Errorf("daemon %d did not drain:\n%s", i, out)
		}
		if !strings.Contains(out, "LASS.Response") {
			t.Errorf("daemon %d sent no token: tokens did not cross the link in both directions:\n%s", i, out)
		}
	}
}

// The storm of one stack: sessions per daemon, each acquiring ops random
// sets of one to four resources; every acquire is granted or shed
// within acquireBound, and each daemon returns within stopBound of its
// cancellation. A mismatched pair's acquire waits mismatchWait.
const (
	sessions, ops = 2, 30
	acquireBound  = 20 * time.Second
	stopBound     = 30 * time.Second
	mismatchWait  = 2 * time.Second
)

// pair is two daemons serving, a client connected to each one's port.
type pair struct {
	sts     [2]*stack.Stack
	lives   [2]*live.Cluster
	clients [2]*serve.Client
	cancel  context.CancelFunc
	outs    [2]bytes.Buffer
	errs    [2]chan error
}

// startPair builds two daemons of two nodes each over 16 resources from
// their command lines, daemon i's plus extra[i]. With refused set,
// stack.Build must refuse both with an error naming every flag of one of
// the rules, and startPair returns nil. Otherwise both serve, every
// listener on a port it chose, and each one's client has had its hello
// answered.
func startPair(t *testing.T, extra [2][]string, refused [][]string) *pair {
	// Every pair listens on a loopback address of its own: a daemon
	// still redialing a peer that has exited reaches no other pair's
	// listener on a port the kernel handed out again.
	n := pairs.Add(1)
	host := fmt.Sprintf("127.1.%d.%d", n>>8&255, n&255)
	p := &pair{}
	for i := range p.sts {
		var cfg daemonConfig
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		registerFlags(fs, &cfg)
		// -peers names the other daemon's port, which exists only once
		// it is bound: the pair is built on placeholders and pointed at
		// the bound ports before it starts.
		args := append([]string{"-nodes=4", "-resources=16", fmt.Sprintf("-local=%d,%d", 2*i, 2*i+1),
			"-listen=" + host + ":0", "-client-listen=" + host + ":0", "-peers=-,-,-,-"}, extra[i]...)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		st, err := stack.Build(cfg.Spec)
		switch {
		case refused != nil && err == nil:
			st.Close()
			t.Fatalf("%v: built, want refused naming %v", extra[i], refused)
		case refused != nil && !namesRule(err, refused):
			t.Fatalf("%v: refused with %q, want it to name every flag of one of %v", extra[i], err, refused)
		case refused != nil:
			return nil // the other daemon's command line differs in -local alone
		case err != nil:
			if i > 0 {
				p.sts[0].Close()
			}
			t.Fatalf("%v: %v", extra[i], err)
		}
		p.sts[i] = st
	}

	peers := []string{p.sts[0].TCP.Addr(), p.sts[0].TCP.Addr(), p.sts[1].TCP.Addr(), p.sts[1].TCP.Addr()}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	t.Cleanup(cancel)
	for i, st := range p.sts {
		st.Spec.Peers = peers
		c, err := st.Start()
		if err != nil {
			st.Close()
			t.Fatalf("daemon %d: %v", i, err)
		}
		p.lives[i] = c
		p.errs[i] = make(chan error, 1)
		go func() { p.errs[i] <- serveStack(ctx, st, c, &p.outs[i]) }()
		cl, err := serve.Dial(st.Port.Addr().String())
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		t.Cleanup(func() { cl.Close() })
		p.clients[i] = cl
	}
	for i, cl := range p.clients {
		// A daemon replies once its cluster runs: storm traffic then
		// finds every peer endpoint configured with its shard layout.
		if _, err := cl.Hello(ctx); err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	return p
}

// stop cancels both daemons, requires each to return nil within
// stopBound, and returns what each printed.
func (p *pair) stop(t *testing.T) [2]string {
	p.cancel()
	var printed [2]string
	for i := range p.sts {
		select {
		case err := <-p.errs[i]:
			if err != nil {
				t.Errorf("daemon %d returned %v", i, err)
			}
		case <-time.After(stopBound):
			t.Fatalf("daemon %d did not return within %v of its cancellation", i, stopBound)
		}
		printed[i] = p.outs[i].String()
	}
	return printed
}

// runPair starts a pair (startPair) and storms it through its client
// ports, then stops it and returns what each daemon printed. Checks:
//   - safety on the hold intervals the clients observe: a client sees
//     its grant after the grant and releases before the release, so an
//     overlap it sees is a real one;
//   - every acquire is granted or shed within acquireBound;
//   - with sharded set, at least a quarter of the grants span shards;
//   - with lossy chaos on daemon 0, drops and retransmits happened; the
//     fault window then closes through the Chaos handle the stack holds;
//   - after the storm one probe acquire per node is granted;
//   - each daemon returns nil within stopBound.
func runPair(t *testing.T, extra [2][]string, refused [][]string, sharded bool) [2]string {
	p := startPair(t, extra, refused)
	if p == nil {
		return [2]string{}
	}
	var held [16]atomic.Int32
	var granted, shed, cross atomic.Int64
	smap := resource.NewShardMap(16, p.sts[0].Spec.Shards)
	acquire := func(cl *serve.Client, node int, rs []int) error {
		actx, acancel := context.WithTimeout(context.Background(), acquireBound)
		release, err := cl.Acquire(actx, node, rs...)
		acancel()
		if err != nil {
			return err
		}
		for _, r := range rs {
			if held[r].Add(1) > 1 {
				t.Errorf("%v: resource %d held twice", extra, r)
			}
		}
		time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
		for _, r := range rs {
			held[r].Add(-1)
		}
		release()
		return nil
	}
	var wg sync.WaitGroup
	for i, cl := range p.clients {
		for s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(2*i + s)))
				for op := range ops {
					rs := rng.Perm(16)[:1+rng.Intn(4)]
					switch err := acquire(cl, serve.AnyNode, rs); {
					case errors.Is(err, serve.ErrOverloaded):
						shed.Add(1)
						continue
					case err != nil:
						t.Errorf("%v: daemon %d session %d acquire %d %v: %v", extra, i, s, op, rs, err)
						return
					}
					granted.Add(1)
					// Shards are contiguous blocks.
					if smap.ShardOf(resource.ID(slices.Min(rs))) != smap.ShardOf(resource.ID(slices.Max(rs))) {
						cross.Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return [2]string{}
	}
	if sharded && 4*cross.Load() < granted.Load() {
		t.Errorf("%v: %d of %d grants spanned shards, want at least a quarter", extra, cross.Load(), granted.Load())
	}
	var dropped, retransmits int64
	for _, st := range p.sts {
		if st.Chaos != nil {
			dropped += st.Chaos.ChaosStats().Dropped
			st.Chaos.StopFaults()
		}
		if st.Rel != nil {
			retransmits += st.Rel.RelStats().Retransmits
		}
	}
	if strings.Contains(p.sts[0].Spec.ChaosSpec, "drop") && (dropped == 0 || retransmits == 0) {
		t.Errorf("%v: the storm dropped %d frames and retransmitted %d, want both above 0", extra, dropped, retransmits)
	}
	for node := range 4 {
		if err := acquire(p.clients[node/2], node, []int{node}); err != nil {
			t.Errorf("%v: node %d: post-storm probe: %v", extra, node, err)
		}
	}
	t.Logf("%d granted, %d shed, %d across shards; chaos dropped %d, retransmits %d",
		granted.Load(), shed.Load(), cross.Load(), dropped, retransmits)
	return p.stop(t)
}

// runMismatch starts a pair whose command lines differ in one
// cluster-wide flag, a on daemon 0 and b on daemon 1, and requires the
// handshake to keep the two apart:
//   - an acquire on daemon 1 that needs daemon 0's tokens times out (at
//     genesis node 0 owns every token, so daemon 0 has none of daemon
//     1's to need);
//   - each peer endpoint's error names a and b;
//   - no node of either daemon has regenerated or fenced a token;
//   - daemon 0, cut short at shutdown (daemon 1 exits first, and a
//     hand-off to it waits out the dial window), still reports its
//     nodes' lease counters when it runs leases;
//   - and, implicitly, neither panics on a frame it cannot read.
func runMismatch(t *testing.T, a, b string) {
	p := startPair(t, [2][]string{{a}, {b}}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), mismatchWait)
	_, err := p.clients[1].Acquire(ctx, 2, 0)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("%s against %s: acquire across the pair returned %v, want it to time out", a, b, err)
	}
	for i, st := range p.sts {
		if err := st.TCP.Err(); err == nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
			t.Errorf("%s against %s: daemon %d's peer endpoint error is %v, want one naming both", a, b, i, err)
		}
	}
	for i, c := range p.lives {
		var sum core.Counters
		for _, id := range p.sts[i].Spec.Local {
			c.Inspect(id, func(n alg.Node) {
				if nd, ok := n.(*core.Node); ok {
					sum.Add(nd.Counters())
				}
			})
		}
		if sum.Regens != 0 || sum.Fenced != 0 {
			t.Errorf("%s against %s: daemon %d regenerated %d tokens and fenced %d", a, b, i, sum.Regens, sum.Fenced)
		}
	}
	out := p.stop(t)[0]
	if p.sts[0].Spec.LeaseTTL > 0 && !strings.Contains(out, "leases: heartbeats=") {
		t.Errorf("%s against %s: daemon 0 reported no lease counters:\n%s", a, b, out)
	}
}

// pairs counts runPair's pairs, for their loopback addresses.
var pairs atomic.Uint32

// namesRule reports whether err names every flag of one of rules.
func namesRule(err error, rules [][]string) bool {
	for _, flags := range rules {
		all := true
		for _, f := range flags {
			all = all && regexp.MustCompile(regexp.QuoteMeta(f)+`\b`).MatchString(err.Error())
		}
		if all {
			return true
		}
	}
	return false
}

// TestPprofBindsBeforeServing: -pprof binds its port before the daemon
// serves, so an occupied address is refused with an error naming the
// flag; a port it bound is released once run returns.
func TestPprofBindsBeforeServing(t *testing.T) {
	daemon := func(pprof string) (string, error) {
		var cfg daemonConfig
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		registerFlags(fs, &cfg)
		if err := fs.Parse([]string{"-nodes=1", "-listen=127.0.0.1:0", "-peers=-", "-pprof=" + pprof}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // run serves, then drains at once
		var out bytes.Buffer
		err := run(ctx, cfg, &out)
		return out.String(), err
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := daemon(busy.Addr().String()); err == nil || !strings.Contains(err.Error(), "-pprof") {
		t.Fatalf("-pprof on an occupied port: err = %v, want a refusal naming -pprof", err)
	}
	out, err := daemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`pprof on http://(\S+)/debug/pprof/`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no pprof address printed:\n%s", out)
	}
	ln, err := net.Listen("tcp", m[1])
	if err != nil {
		t.Fatalf("pprof port %s still bound after run returned: %v", m[1], err)
	}
	ln.Close()
}
