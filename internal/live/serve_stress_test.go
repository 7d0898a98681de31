package live

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"mralloc/internal/verify"
)

// TestScheduledSessionStress is the serve-layer stress battery:
// randomized multi-session load through the admission scheduler under
// every policy, over both the in-process and the TCP-loopback fabric,
// with two invariants on top of -race cleanliness:
//
//   - the verify.Monitor invariants (safety, hypothesis 4, liveness at
//     quiescence), checked per session — each session gets a synthetic
//     site id, since a session serializes its own requests exactly the
//     way a protocol node serializes its own;
//   - no starvation: every admitted session's every Acquire is
//     granted within the (generous) timeout, whatever the policy
//     prefers — the aging guarantee, observed end to end.
func TestScheduledSessionStress(t *testing.T) {
	for _, policy := range serve.Policies() {
		for _, fb := range []fabric{memFabric(), tcpFabric()} {
			policy, fb := policy, fb
			t.Run(string(policy)+"/"+fb.name, func(t *testing.T) {
				t.Parallel()
				runScheduledSessionStress(t, fb, policy)
			})
		}
	}
}

func runScheduledSessionStress(t *testing.T, fb fabric, policy serve.Policy) {
	const nodes, m, perNode = 4, 10, 8
	iters := 12
	if testing.Short() {
		iters = 5
	}
	// A short aging threshold so the starvation-freedom path (aged
	// promotion over the policy's preference) actually runs, not just
	// exists.
	sys := fb.buildPolicy(t, nodes, m, core.NewFactory(core.WithLoan()), policy, 20*time.Millisecond)
	defer sys.close()

	var monMu sync.Mutex
	now := sim.Wall().Now
	mon := verify.New(m, func(v verify.Violation) { t.Errorf("%s: %v", policy, v) })

	var wg sync.WaitGroup
	total := nodes * perNode
	for s := 0; s < total; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid := network.NodeID(s)
			node := s % nodes
			sess, err := sys.session(node)
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(s)*9176 + int64(len(policy))))
			for i := 0; i < iters; i++ {
				rs := resource.Sample(rng, m, 1+rng.Intn(4))
				ids := make([]int, 0, rs.Len())
				rs.ForEach(func(r resource.ID) { ids = append(ids, int(r)) })

				monMu.Lock()
				mon.Requested(sid, now())
				monMu.Unlock()

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				release, err := sess.Acquire(ctx, serve.AcquireOpts{
					Resources: ids,
					Deadline:  time.Now().Add(time.Duration(1+rng.Intn(200)) * time.Millisecond),
				})
				cancel()
				if err != nil {
					t.Errorf("%s: session %d iter %d: acquire %v: %v (starvation?)", policy, s, i, ids, err)
					return
				}
				monMu.Lock()
				mon.Granted(sid, rs, now())
				monMu.Unlock()

				if d := rng.Intn(150); d > 0 {
					time.Sleep(time.Duration(d) * time.Microsecond)
				}

				monMu.Lock()
				mon.Released(sid, rs, now())
				monMu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()

	monMu.Lock()
	defer monMu.Unlock()
	mon.CheckQuiescent(now())
	if got, want := mon.Grants(), total*iters; got != want {
		t.Errorf("%s: monitor saw %d grants, want %d", policy, got, want)
	}
}

// TestCancellationStorm mixes short-deadline (often canceled) and
// patient sessions under every policy: canceled acquires must
// withdraw cleanly, and the patient traffic must still be served to
// completion — no stuck slots, no leaked grants.
func TestCancellationStorm(t *testing.T) {
	for _, policy := range serve.Policies() {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			t.Parallel()
			const nodes, m = 2, 4
			iters := 15
			if testing.Short() {
				iters = 6
			}
			c, err := New(Config{Nodes: nodes, Resources: m, Policy: policy, Aging: 10 * time.Millisecond},
				core.NewFactory(core.WithLoan()))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for s := 0; s < 12; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 31))
					impatient := s%3 == 0
					for i := 0; i < iters; i++ {
						timeout := 2 * time.Minute
						if impatient {
							timeout = time.Duration(1+rng.Intn(3)) * time.Millisecond
						}
						ctx, cancel := context.WithTimeout(context.Background(), timeout)
						release, err := c.Acquire(ctx, s%nodes, rng.Intn(m), rng.Intn(m))
						cancel()
						switch {
						case err == nil:
							time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
							release()
						case impatient && ctx.Err() != nil:
							// expected: gave up while queued or in flight
						default:
							t.Errorf("session %d iter %d: %v", s, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			// After the storm every resource must still be obtainable.
			for r := 0; r < m; r++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				release, err := c.Acquire(ctx, 0, r)
				cancel()
				if err != nil {
					t.Fatalf("resource %d unobtainable after the storm: %v", r, err)
				}
				release()
			}
		})
	}
}
