package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mralloc/internal/live"
	"mralloc/internal/metrics"
	"mralloc/internal/serve"
)

// The open-loop tier. The cells are closed-loop: a fixed set of
// sessions issues the next request only after the previous one
// finishes, so offered load can never exceed capacity and queueing
// collapse is structurally invisible. runOpenLoop decouples arrivals
// from completions — sessions arrive at a target RPS (Poisson, seeded)
// whether or not earlier ones have finished, exactly like independent
// users hitting a service — and measures offered load, goodput (grants
// within the SLO per second), shed rate and the sojourn-time
// distribution of one window.
//
// The fabric is the tcploop deployment: two in-process daemons on real
// 127.0.0.1 sockets, half the nodes each, serve.Client sessions over
// the client wire protocol. Runs differ only in admission policy —
// fixed FIFO with an unbounded queue (the collapse exhibit) versus
// Adaptive, whose self-tuned bound sheds (DenyOverloaded) before the
// knee and switches ordering under pressure.

// openLoopConfig parameterizes one open-loop run.
type openLoopConfig struct {
	// Nodes is the cluster size, split across the two daemons.
	Nodes int
	// Policy is each node's admission policy; AdmitTarget the Adaptive
	// grant-latency target (serve.DefaultAdmitTarget when zero; ignored
	// by fixed policies). The client ports' queues are unbounded.
	Policy      serve.Policy
	AdmitTarget time.Duration

	// RPS is the offered arrival rate: Poisson arrivals, exponential
	// inter-arrival times drawn from Seed.
	RPS  float64
	Seed int64

	// Warmup arrivals prime the fabric and are excluded from every
	// reported number; Window is the measured span. Defaults: 250ms
	// and 1s.
	Warmup, Window time.Duration
	// Timeout bounds one acquisition (default 1s). A request still
	// unanswered then is withdrawn and counted as timed out, with its
	// sojourn clamped to Timeout — under collapse the queue outgrows
	// the window, and unclamped sojourns would survivorship-bias p99
	// toward the requests that made it.
	Timeout time.Duration
}

// openLoopSLO is the sojourn objective a grant must meet to count
// toward goodput: well above the fabric's uncongested sojourn
// (hundreds of microseconds) and well below the collapse signature
// (sojourns clamped at the timeout). A grant delivered after it is
// wasted work: the collapse exhibit keeps granting at a high rate, but
// at sojourns no caller would still be waiting for.
const openLoopSLO = 50 * time.Millisecond

// openLoopAdmitTarget is the Adaptive grant-latency target the
// collapse exhibit runs with: a fifth of the SLO. Probing showed deeper
// targets are strictly worse here — a deeper admitted queue both
// lengthens the survivors' sojourns and (by slowing every slot's
// grant/release round trip) lowers the admitted rate, so the rest of
// the SLO is left for wire round trips, fan-out and scheduling noise.
const openLoopAdmitTarget = 10 * time.Millisecond

// openLoopMaxInFlight caps the driver's concurrently outstanding
// arrivals; beyond it arrivals are dropped and counted as shed without
// a wire round trip, bounding driver memory however far past the knee
// a run goes.
const openLoopMaxInFlight = 8192

func (cfg *openLoopConfig) defaults() error {
	if cfg.Nodes < 2 || cfg.Nodes%2 != 0 {
		return fmt.Errorf("openloop: need an even node count ≥ 2, got %d", cfg.Nodes)
	}
	if cfg.RPS <= 0 {
		return fmt.Errorf("openloop: need a positive rate, got %v", cfg.RPS)
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 250 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	_, err := serve.ParsePolicy(string(cfg.Policy))
	return err
}

// start assembles the run's deployment.
func (cfg openLoopConfig) start() (*loopback, error) {
	return startLoopback(live.Config{
		Nodes: cfg.Nodes, Policy: cfg.Policy, AdmitTarget: cfg.AdmitTarget,
	}, true)
}

// openLoopResult is one run's measurement. All counts and rates cover
// the measurement window only (arrivals whose scheduled instant fell
// inside it).
type openLoopResult struct {
	// Offered is the realized arrival rate (arrivals/s, including shed
	// and dropped ones). Throughput is all granted acquisitions/s;
	// Goodput only the grants whose sojourn met openLoopSLO — the
	// distinction is the whole point of the tier: a collapsed FIFO queue
	// keeps granting near capacity, but at sojourns no caller would
	// still be waiting for, so its throughput stays flat while its
	// goodput goes to zero.
	Offered, Throughput, Goodput float64
	// Shed counts the arrivals the daemons denied for overload.
	Shed int64
	// ShedRate is the fraction of arrivals not granted: shed, timed out
	// or dropped by the driver.
	ShedRate float64
	// Sojourn is the arrival→grant distribution in milliseconds.
	// Timed-out requests contribute their clamped Timeout; shed and
	// dropped ones contribute nothing (they fail in microseconds — the
	// point of shedding — and would mask the survivors' tail).
	Sojourn metrics.Summary
}

// runOpenLoop assembles a deployment and offers cfg.RPS arrivals to it for
// warmup+window, each arrival one AnyNode acquisition of two
// resources, released the moment it is granted (the protocol's
// acquisition cost dominates; hold time would only shift the knee).
func runOpenLoop(cfg openLoopConfig) (openLoopResult, error) {
	if err := cfg.defaults(); err != nil {
		return openLoopResult{}, err
	}
	cell, err := cfg.start()
	if err != nil {
		return openLoopResult{}, err
	}
	defer cell.close()

	var (
		granted, withinSLO, shed, timedOut, dropped, arrivals atomic.Int64

		inflight atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		sojourn  metrics.Accum
		firstErr atomic.Value
	)
	record := func(d time.Duration) {
		mu.Lock()
		sojourn.Add(float64(d) / float64(time.Millisecond))
		mu.Unlock()
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6f70656e6c6f6f70)) // "openloop"
	interval := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.RPS)
	}

	start := time.Now()
	end := cfg.Warmup + cfg.Window
	// Arrivals are scheduled on an absolute timeline and sojourns
	// measured from the *scheduled* instant: if the driver or fabric
	// falls behind, the lateness is queueing delay the user would see,
	// not something to hide.
	var n int64
	for next := interval(); next < end; next += interval() {
		at := start.Add(next)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		inWindow := next >= cfg.Warmup
		if inWindow {
			arrivals.Add(1)
		}
		if inflight.Add(1) > openLoopMaxInFlight {
			inflight.Add(-1)
			if inWindow {
				dropped.Add(1)
			}
			continue
		}
		n++
		r1 := int(n*7) % loopM
		r2 := (r1 + 11) % loopM
		cl := cell.clients[n%int64(len(cell.clients))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(cfg.Timeout))
			defer cancel()
			opts := serve.AcquireOpts{Resources: []int{r1, r2}}
			if cfg.AdmitTarget > 0 {
				opts.Deadline = at.Add(cfg.AdmitTarget)
			}
			release, err := cl.AcquireWith(ctx, serve.AnyNode, opts)
			switch {
			case err == nil:
				soj := time.Since(at)
				release()
				if inWindow {
					granted.Add(1)
					if soj <= openLoopSLO {
						withinSLO.Add(1)
					}
					record(soj)
				}
			case errors.Is(err, serve.ErrOverloaded):
				if inWindow {
					shed.Add(1)
				}
			case ctx.Err() != nil:
				if inWindow {
					timedOut.Add(1)
					record(cfg.Timeout)
				}
			default:
				firstErr.CompareAndSwap(nil, err)
			}
		}()
	}
	wg.Wait()

	if v := firstErr.Load(); v != nil {
		return openLoopResult{}, v.(error)
	}
	sec := cfg.Window.Seconds()
	res := openLoopResult{
		Offered:    float64(arrivals.Load()) / sec,
		Throughput: float64(granted.Load()) / sec,
		Goodput:    float64(withinSLO.Load()) / sec,
		Shed:       shed.Load(),
		Sojourn:    sojourn.Summary(),
	}
	if a := arrivals.Load(); a > 0 {
		res.ShedRate = float64(shed.Load()+timedOut.Load()+dropped.Load()) / float64(a)
	}
	return res, nil
}

// calibrateCapacity estimates the loopback fabric's closed-loop
// capacity (granted acquisitions/s) by running workers back-to-back
// acquire/release cycles for the given duration on a fresh FIFO cell.
// It places open-loop rates relative to the machine the test runs on —
// "3× capacity" is past the knee on any hardware, where a fixed rate
// would be past it on one machine and under it on another.
func calibrateCapacity(nodes, workers int, d time.Duration) (float64, error) {
	cfg := openLoopConfig{Nodes: nodes, Policy: serve.FIFO, RPS: 1}
	if err := cfg.defaults(); err != nil {
		return 0, err
	}
	cell, err := cfg.start()
	if err != nil {
		return 0, err
	}
	defer cell.close()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		cl := cell.clients[w%len(cell.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				r1, r2 := loopPair(w, int64(i))
				release, err := cl.Acquire(ctx, serve.AnyNode, r1, r2)
				if err != nil {
					return
				}
				release()
				ops.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(ops.Load()) / d.Seconds(), nil
}

func TestOpenLoopConfigValidation(t *testing.T) {
	if _, err := runOpenLoop(openLoopConfig{Nodes: 3, Policy: serve.FIFO, RPS: 100}); err == nil {
		t.Error("odd node count accepted")
	}
	if _, err := runOpenLoop(openLoopConfig{Nodes: 4, Policy: serve.FIFO}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := runOpenLoop(openLoopConfig{Nodes: 4, Policy: "bogus", RPS: 100}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestOpenLoopCollapseVsAdaptive is the tier's pinned claim: offered
// load strictly past capacity collapses an unbounded FIFO queue (p99
// at timeout scale) while the Adaptive policy sheds early and holds
// the survivors' p99 inside the SLO — at a goodput (grants within the
// SLO) no worse than FIFO's, whose grants arrive too late to count.
// The rate is placed relative to this machine's measured closed-loop
// capacity, so the run is past the knee on any hardware.
//
// A round is calibration plus both runs, about 2.5s of wall clock, and
// all five conditions must hold in it. Up to three rounds are tried:
// `go test ./...` runs other packages' tests on the same cores, and
// capacity that halves between the calibration and the adaptive run
// reads as adaptive timing out, not holding.
func TestOpenLoopCollapseVsAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop runs need real wall-clock windows")
	}
	for round := 0; ; round++ {
		broken := collapseRound(t)
		if len(broken) == 0 {
			return
		}
		if round == 2 {
			t.Fatalf("no clean round in three; the last broke:\n  %s", strings.Join(broken, "\n  "))
		}
		t.Logf("round %d broke:\n  %s", round, strings.Join(broken, "\n  "))
	}
}

// collapseRound measures capacity, offers 1.1× of it to FIFO and to
// Adaptive, and returns the conditions of the claim that did not hold.
func collapseRound(t *testing.T) (broken []string) {
	capacity, err := calibrateCapacity(4, 16, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rate := 1.1 * capacity
	t.Logf("closed-loop capacity ≈ %.0f/s, offering %.0f/s", capacity, rate)
	run := func(policy serve.Policy) openLoopResult {
		cfg := openLoopConfig{Nodes: 4, Policy: policy, RPS: rate, Seed: 7,
			Warmup: 200 * time.Millisecond, Window: 600 * time.Millisecond,
			Timeout: 500 * time.Millisecond}
		if policy == serve.Adaptive {
			cfg.AdmitTarget = openLoopAdmitTarget
		}
		res, err := runOpenLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-8s offered=%.0f grant=%.0f goodput=%.0f shed=%.3f p50=%.1f p99=%.1fms",
			policy, res.Offered, res.Throughput, res.Goodput, res.ShedRate,
			res.Sojourn.P50, res.Sojourn.P99)
		return res
	}
	fifo := run(serve.FIFO)
	adaptive := run(serve.Adaptive)

	breakf := func(format string, args ...any) { broken = append(broken, fmt.Sprintf(format, args...)) }
	slo := float64(openLoopSLO) / float64(time.Millisecond)
	if fifo.Sojourn.P99 < 3*slo {
		breakf("FIFO past the knee should collapse: p99 = %.1fms, want ≥ %.0fms", fifo.Sojourn.P99, 3*slo)
	}
	if adaptive.Sojourn.P99 > 3*slo {
		breakf("adaptive p99 = %.1fms, want ≤ %.0fms", adaptive.Sojourn.P99, 3*slo)
	}
	if adaptive.Goodput < fifo.Goodput {
		breakf("adaptive goodput %.0f/s below FIFO's %.0f/s", adaptive.Goodput, fifo.Goodput)
	}
	if adaptive.Shed == 0 {
		breakf("adaptive shed nothing past the knee — it must deny, not queue unboundedly")
	}
	if fifo.Shed != 0 {
		breakf("unbounded FIFO has no shedding edge, yet shed %d", fifo.Shed)
	}
	return broken
}
