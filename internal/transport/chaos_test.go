package transport_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// chaosMemFabric wraps the in-process fabric in a Chaos with no fault
// armed: the wrapper must be a pure passthrough, so the full
// conformance suite runs against it unchanged. One wrapper is shared
// by every node, like the Mem it wraps, so stats count once.
func chaosMemFabric(t *testing.T, n int) []transport.Transport {
	return shared(transport.NewChaos(transport.NewMem(n, 0), 1), n)
}

// chaosMemArmedFabric arms the fault pipeline and closes the fault
// window before any traffic, the way a run's faults stop: traffic
// routes through the per-link forwarder queues, and every transport
// guarantee must still hold — the pipeline itself may not lose,
// duplicate, or reorder a link.
func chaosMemArmedFabric(t *testing.T, n int) []transport.Transport {
	ch := transport.NewChaos(transport.NewMem(n, 0), 1)
	ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 1}})
	ch.StopFaults()
	return shared(ch, n)
}

// chaosTCPFabric wraps every TCP endpoint of the maximally
// distributed topology in its own unarmed Chaos.
func chaosTCPFabric(t *testing.T, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i, tr := range tcpEndpoints(t, n) {
		eps[i] = transport.NewChaos(tr, int64(i))
	}
	return eps
}

func TestChaosMemConformance(t *testing.T) {
	transporttest.TestTransport(t, chaosMemFabric)
}

func TestChaosMemArmedConformance(t *testing.T) {
	transporttest.TestTransport(t, chaosMemArmedFabric)
}

func TestChaosTCPConformance(t *testing.T) {
	transporttest.TestTransport(t, chaosTCPFabric)
}

// TestChaosScheduleReplay pins determinism: the same seed, fault
// profile, and per-link send order must draw the identical decision
// schedule, byte for byte — which is what makes a chaotic failure
// reproducible from its spec alone. A different seed must not.
func TestChaosScheduleReplay(t *testing.T) {
	f := transport.Faults{Drop: 0.3, Dup: 0.2, DelayMin: 0, DelayMax: 100 * time.Microsecond}
	run := func(seed int64) ([]byte, transport.ChaosStats) {
		const n = 3
		ch := transport.NewChaos(transport.NewMem(n, 0), seed)
		defer ch.Close()
		ch.Configure(transport.Config{}, func(transport.Link, network.Message) {})
		ch.Apply(transport.Spec{Faults: f})
		// A fixed single-threaded drive over three links: the decision
		// sequence depends only on per-link send order, which this
		// fixes exactly.
		for s := int64(0); s < 200; s++ {
			ch.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: s})
			if s%3 == 0 {
				ch.Send(transport.Link{From: 1, To: 2}, transporttest.Msg{K: transporttest.KindB, From: 1, Seq: s})
			}
			if s%5 == 0 {
				ch.Send(transport.Link{From: 2, To: 0}, transporttest.Msg{K: transporttest.KindA, From: 2, Seq: s})
				ch.Send(transport.Link{From: 2, To: 0}, transporttest.Msg{K: transporttest.KindB, From: 2, Seq: s + 1})
			}
		}
		return ch.Trace(), ch.ChaosStats()
	}
	tr1, st1 := run(42)
	tr2, st2 := run(42)
	tr3, _ := run(43)
	if len(tr1) == 0 {
		t.Fatal("empty decision trace")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Fatalf("same seed produced different schedules:\n%x\n%x", tr1, tr2)
	}
	if bytes.Equal(tr1, tr3) {
		t.Fatal("different seeds produced the identical schedule")
	}
	if st1 != st2 {
		t.Fatalf("same seed produced different fault counts: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 || st1.Delayed == 0 {
		t.Fatalf("schedule exercised no faults: %+v", st1)
	}
}

// TestChaosTraceBounded: a link's decision record is a fixed size, so a
// chaotic endpoint's memory does not grow with the messages it sends.
func TestChaosTraceBounded(t *testing.T) {
	traceAfter := func(sends int) []byte {
		ch := transport.NewChaos(transport.NewMem(2, 0), 1)
		defer ch.Close()
		ch.Configure(transport.Config{}, func(transport.Link, network.Message) {})
		ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 0.1, Dup: 0.1}})
		for s := range sends {
			ch.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, Seq: int64(s)})
		}
		return ch.Trace()
	}
	if short, long := traceAfter(10), traceAfter(10_000); len(short) != len(long) {
		t.Fatalf("trace is %d bytes after 10 sends, %d after 10 000", len(short), len(long))
	}
}

// TestChaosDirectedPartition: severing a→b queues that link's traffic
// (FIFO) while b→a still flows; Heal delivers everything queued, in
// order — the asymmetric failure mode a bidirectional cut cannot
// model.
func TestChaosDirectedPartition(t *testing.T) {
	const n = 2
	ch := transport.NewChaos(transport.NewMem(n, 0), 7)
	defer ch.Close()
	got := make(chan transporttest.Msg, 64)
	ch.Configure(transport.Config{}, func(_ transport.Link, m network.Message) { got <- m.(transporttest.Msg) })

	ch.Partition(transport.Link{From: 0, To: 1})
	for s := int64(1); s <= 5; s++ {
		ch.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: s})
	}
	// The reverse link must be untouched.
	ch.Send(transport.Link{From: 1, To: 0}, transporttest.Msg{K: transporttest.KindB, From: 1, Seq: 100})
	select {
	case m := <-got:
		if m.From != 1 {
			t.Fatalf("severed-link message delivered during partition: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reverse link blocked by a directed partition")
	}
	select {
	case m := <-got:
		t.Fatalf("message %+v crossed a severed link", m)
	case <-time.After(50 * time.Millisecond):
	}

	ch.Heal(transport.Link{From: 0, To: 1})
	for s := int64(1); s <= 5; s++ {
		select {
		case m := <-got:
			if m.Seq != s {
				t.Fatalf("post-heal delivery out of order: got seq %d, want %d", m.Seq, s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered after heal", s)
		}
	}
}

// oneConn is an in-process fabric that reports one connection killed
// per AbortConns, so the chaos layer's kill count is visible over Mem.
type oneConn struct{ *transport.Mem }

func (oneConn) AbortConns() int { return 1 }

// TestChaosKillEveryOnClock: a spec's kill period waits for the stack
// to be configured and then runs on the announced clock — on a virtual
// clock nothing is killed until it moves, and each period passed kills
// once.
func TestChaosKillEveryOnClock(t *testing.T) {
	clk := sim.NewVirtual()
	ch := transport.NewChaos(oneConn{transport.NewMem(2, 0)}, 5)
	defer ch.Close()
	ch.Apply(transport.Spec{KillEvery: time.Second})
	ch.Configure(transport.Config{Clock: clk}, func(transport.Link, network.Message) {})
	for i := 1; i <= 3; i++ {
		awaitArmed(t, clk, "the connection killer")
		if got := ch.ChaosStats().Killed; got != int64(i-1) {
			t.Fatalf("after %d periods: %d kills", i-1, got)
		}
		clk.Advance(time.Second)
	}
	for deadline := time.Now().Add(5 * time.Second); ch.ChaosStats().Killed < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("3 periods passed, %d kills", ch.ChaosStats().Killed)
		}
		runtime.Gosched()
	}
}

// TestChaosSpecRoundTrip pins the schedule's text form: print → parse
// must be the identity (probabilities bit for bit), a hand-typed spec
// parses to what it says, and malformed input is rejected with an
// error naming the offending key.
func TestChaosSpecRoundTrip(t *testing.T) {
	specs := []transport.Spec{
		{},
		{Seed: -12345},
		{Seed: 42, Faults: transport.Faults{Drop: 0.05, Dup: 0.01, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}, KillEvery: 250 * time.Millisecond},
		{Seed: 1 << 60, Faults: transport.Faults{Drop: 1, Dup: 1, DelayMax: time.Hour}},
		{Faults: transport.Faults{Drop: 1.0 / 3, Dup: math.SmallestNonzeroFloat64, DelayMin: 1, DelayMax: math.MaxInt64}, KillEvery: 1500 * time.Microsecond},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		lo := time.Duration(rng.Int63n(int64(time.Second)))
		specs = append(specs, transport.Spec{
			Seed:      rng.Int63() - rng.Int63(),
			Faults:    transport.Faults{Drop: rng.Float64(), Dup: rng.Float64(), DelayMin: lo, DelayMax: lo + time.Duration(rng.Int63n(int64(time.Second)))},
			KillEvery: time.Duration(rng.Int63()),
		})
	}
	for _, s := range specs {
		got, err := transport.ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if got != s || math.Float64bits(got.Drop) != math.Float64bits(s.Drop) || math.Float64bits(got.Dup) != math.Float64bits(s.Dup) {
			t.Fatalf("round trip through %q changed spec: %+v -> %+v", s, s, got)
		}
	}

	const typed = "seed=7,drop=0.02,dup=0.02,delay=100us..1ms,kill-every=2s"
	want := transport.Spec{Seed: 7, Faults: transport.Faults{Drop: 0.02, Dup: 0.02, DelayMin: 100 * time.Microsecond, DelayMax: time.Millisecond}, KillEvery: 2 * time.Second}
	if got, err := transport.ParseSpec(typed); err != nil || got != want {
		t.Fatalf("ParseSpec(%q) = %+v, %v; want %+v", typed, got, err, want)
	}
	if got := want.String(); got != typed {
		t.Fatalf("String() = %q, want %q", got, typed)
	}
	if got, err := transport.ParseSpec("kill-every=1s,seed=3"); err != nil || got != (transport.Spec{Seed: 3, KillEvery: time.Second}) {
		t.Fatalf("keys out of order: %+v, %v", got, err)
	}

	bad := map[string]string{ // input → the key its error must name
		"jitter=1":           "jitter",
		"seed=1,seed=2":      "seed",
		"seed=x":             "seed",
		"drop=1.5":           "drop",
		"drop=-0.1":          "drop",
		"dup=NaN":            "dup",
		"delay=2ms..1ms":     "delay",
		"delay=1ms":          "delay",
		"delay=-1ms..1ms":    "delay",
		"kill-every=-2s":     "kill-every",
		"kill-every=soon":    "kill-every",
		"drop":               "drop",
		"seed=1,":            `""`,
		"deadbeef0102030405": "deadbeef0102030405",
	}
	for in, key := range bad {
		_, err := transport.ParseSpec(in)
		if err == nil {
			t.Fatalf("ParseSpec accepted malformed input %q", in)
		}
		if !strings.Contains(err.Error(), key) {
			t.Fatalf("ParseSpec(%q): error %q does not name %s", in, err, key)
		}
	}
}

// FuzzChaosSpec: ParseSpec must never panic, and anything it accepts
// must re-print and re-parse to itself — the replay handle a spec is
// must mean the same schedule wherever it lands.
func FuzzChaosSpec(f *testing.F) {
	f.Add("")
	f.Add(transport.Spec{Seed: 42, Faults: transport.Faults{Drop: 0.05, Dup: 0.01, DelayMax: 5 * time.Millisecond}, KillEvery: 100 * time.Millisecond}.String())
	f.Add(transport.Spec{Seed: -1, Faults: transport.Faults{Drop: 1, Dup: 1, DelayMin: 1, DelayMax: 1}}.String())
	f.Add("drop=0x1p-2,delay=1µs..1h")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := transport.ParseSpec(text)
		if err != nil {
			return
		}
		again, err := transport.ParseSpec(s.String())
		if err != nil {
			t.Fatalf("accepted %q but rejects its own re-print %q: %v", text, s, err)
		}
		if again != s {
			t.Fatalf("re-print round trip changed spec: %+v -> %+v", s, again)
		}
	})
}
