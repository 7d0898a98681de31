// Command mrclient drives a running mralloc cluster from outside:
// it connects to a daemon's client port (mrallocd -client-listen) and
// runs a synthetic workload over the client wire protocol, reporting
// wait-time statistics. It is both a smoke tool for deployments and
// the reference consumer of internal/serve.Client.
//
// Against the 3-daemon example of cmd/mrallocd (with daemon 0 started
// with -client-listen 127.0.0.1:8000):
//
//	mrclient -addr 127.0.0.1:8000 -sessions 64 -ops 20 -phi 3
//
// opens one connection multiplexing 64 concurrent sessions, each
// performing 20 random acquire/release cycles on the daemon's nodes —
// a closed loop: each session issues its next request only after the
// previous one finishes, so offered load can never exceed capacity.
//
// With -rate the client switches to open-loop mode: arrivals are
// offered at that rate (Poisson) for -duration whether or not earlier
// ones have finished, like independent users hitting a service — the
// mode that makes queueing collapse visible. Shed arrivals
// (ErrOverloaded, from the adaptive bound of a -policy adaptive
// daemon) and timeouts are counted instead of aborting the run.
//
//	mrclient -addr 127.0.0.1:8000 -rate 5000 -duration 30s -interval 1s
//
// -interval prints wait quantiles per window (each window's
// distribution is independent — the accumulator is snapshot-reset), so
// a drifting tail is visible as it drifts, not averaged away.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mralloc/internal/metrics"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
)

type clientConfig struct {
	addr          string
	sessions, ops int
	m, phi, node  int
	think, hold   time.Duration
	timeout       time.Duration
	seed          int64
	rate          float64
	duration      time.Duration
	interval      time.Duration
}

func main() {
	var cfg clientConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8000", "client port of a mrallocd daemon")
	flag.IntVar(&cfg.sessions, "sessions", 8, "closed loop: concurrent sessions to multiplex on the connection")
	flag.IntVar(&cfg.ops, "ops", 10, "closed loop: acquire/release cycles per session")
	flag.IntVar(&cfg.m, "resources", 0, "resource universe size M of the cluster (0 = learn it from the daemon's hello)")
	flag.IntVar(&cfg.phi, "phi", 3, "maximum resources per request")
	flag.IntVar(&cfg.node, "node", serve.AnyNode, "target node id (-1 = daemon picks round-robin)")
	flag.DurationVar(&cfg.think, "think", time.Millisecond, "closed loop: mean pause between a session's requests")
	flag.DurationVar(&cfg.hold, "hold", 500*time.Microsecond, "critical-section duration")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "per-acquire timeout")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.Float64Var(&cfg.rate, "rate", 0, "open loop: offer arrivals at this rate (acquires/s, Poisson) for -duration instead of running sessions×ops")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "open loop: how long to offer arrivals")
	flag.DurationVar(&cfg.interval, "interval", 0, "print wait quantiles per window of this length (0 = one final summary); windows are independent, not cumulative")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mrclient:", err)
		os.Exit(1)
	}
}

// drawResources picks 1..phi distinct resources, ascending: the same
// requests for the same seed.
func drawResources(rng *rand.Rand, m, phi int) []int {
	members := resource.Sample(rng, m, 1+rng.Intn(phi)).Members()
	ids := make([]int, len(members))
	for i, r := range members {
		ids[i] = int(r)
	}
	return ids
}

func run(cfg clientConfig) error {
	cl, err := serve.Dial(cfg.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if cfg.m == 0 {
		// The daemon's hello reply carries the cluster shape, so a
		// client needs no out-of-band M.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		hello, err := cl.Hello(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("learning cluster shape (pass -resources to skip): %w", err)
		}
		cfg.m = hello.Resources
		fmt.Printf("mrclient: daemon announced N=%d M=%d\n", hello.Nodes, cfg.m)
	}
	if cfg.phi < 1 || cfg.phi > cfg.m {
		return fmt.Errorf("-phi %d outside [1, %d]", cfg.phi, cfg.m)
	}

	var mu sync.Mutex
	var wait metrics.Accum
	record := func(since time.Time) {
		mu.Lock()
		wait.Add(float64(time.Since(since).Microseconds()) / 1e3)
		mu.Unlock()
	}
	// The windowed reporter: every -interval, swap the accumulator out
	// (Snapshot resets it) and print that window alone.
	stopReport := func() {}
	if cfg.interval > 0 {
		done := make(chan struct{})
		var wgR sync.WaitGroup
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			tick := time.NewTicker(cfg.interval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					mu.Lock()
					s := wait.Snapshot()
					mu.Unlock()
					fmt.Printf("window %v: n=%d wait ms mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
						cfg.interval, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
				}
			}
		}()
		stopReport = func() { close(done); wgR.Wait() }
	}

	if cfg.rate > 0 {
		err = runOpenLoop(cfg, cl, record)
	} else {
		err = runClosedLoop(cfg, cl, record)
	}
	stopReport()
	if err != nil {
		return err
	}
	mu.Lock()
	sum := wait.Summary()
	mu.Unlock()
	if sum.Count > 0 {
		fmt.Printf("wait ms: n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
			sum.Count, sum.Mean, sum.P50, sum.P95, sum.P99, sum.Max)
	}
	return nil
}

// runClosedLoop is the original sessions×ops workload.
func runClosedLoop(cfg clientConfig, cl *serve.Client, record func(time.Time)) error {
	errs := make(chan error, cfg.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < cfg.sessions; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(s)*1000003))
			for i := 0; i < cfg.ops; i++ {
				ids := drawResources(rng, cfg.m, cfg.phi)
				ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
				issued := time.Now()
				release, err := cl.Acquire(ctx, cfg.node, ids...)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", s, err)
					return
				}
				record(issued)
				if cfg.hold > 0 {
					time.Sleep(cfg.hold)
				}
				release()
				if cfg.think > 0 {
					time.Sleep(time.Duration(rng.ExpFloat64() * float64(cfg.think)))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("mrclient: %d sessions × %d ops in %v (%.0f acquires/s)\n",
		cfg.sessions, cfg.ops, elapsed.Round(time.Millisecond),
		float64(cfg.sessions*cfg.ops)/elapsed.Seconds())
	return nil
}

// runOpenLoop offers Poisson arrivals at cfg.rate for cfg.duration,
// counting sheds and timeouts instead of aborting on them — under
// overload they are the measurement.
func runOpenLoop(cfg clientConfig, cl *serve.Client, record func(time.Time)) error {
	var granted, shed, timedOut atomic.Int64
	var firstErr atomic.Value
	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()
	var wg sync.WaitGroup
	var n int64
	for next := time.Duration(0); next < cfg.duration; next += time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.rate) {
		at := start.Add(next)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		n++
		seed := cfg.seed + n*1000003
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := drawResources(rand.New(rand.NewSource(seed)), cfg.m, cfg.phi)
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(cfg.timeout))
			defer cancel()
			release, err := cl.Acquire(ctx, cfg.node, ids...)
			switch {
			case err == nil:
				record(at)
				if cfg.hold > 0 {
					time.Sleep(cfg.hold)
				}
				release()
				granted.Add(1)
			case errors.Is(err, serve.ErrOverloaded):
				shed.Add(1)
			case ctx.Err() != nil:
				timedOut.Add(1)
			default:
				firstErr.CompareAndSwap(nil, err)
			}
		}()
	}
	wg.Wait()
	if v := firstErr.Load(); v != nil {
		return v.(error)
	}
	elapsed := time.Since(start)
	fmt.Printf("mrclient: offered %d arrivals in %v (%.0f/s): granted=%d shed=%d timed-out=%d\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		granted.Load(), shed.Load(), timedOut.Load())
	return nil
}
