package live

import (
	"runtime"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/core"
	"mralloc/internal/sim"
)

// TestTickHeartbeatsOnVirtualClock drives the Tick machinery on a
// virtual clock: a fabric-less cluster with leases armed, advanced one
// Tick at a time, each step once the ticker has re-armed and the runner
// has handled what it posted. The heartbeat counts are then what the
// ticks imply, exactly. Site 0 owns every token at start and heartbeats
// them every third tick (LeaseTTL/3), one LASS.HB per other steward;
// nobody else owns anything.
func TestTickHeartbeatsOnVirtualClock(t *testing.T) {
	const n, m, ticks = 3, 6, 10
	const tick = 10 * time.Millisecond
	opt := core.WithLoan()
	opt.LeaseTTL = sim.Time(9 * tick)
	clk := sim.NewVirtual()
	c, err := New(Config{Nodes: n, Resources: m, Tick: tick, Clock: clk}, core.NewFactory(opt))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// settle waits for the ticker to re-arm, which it does once it has
	// posted the last tick, then for the runner to handle that tick.
	settle := func() {
		for deadline := time.Now().Add(10 * time.Second); clk.Armed() == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the ticker did not re-arm within 10s")
			}
		}
		c.Inspect(0, func(alg.Node) {})
	}
	for i := 0; i < ticks; i++ {
		settle()
		clk.Advance(tick)
	}
	settle()

	rounds := (ticks + 2) / 3 // ticks 1, 4, 7 and 10
	for id := 0; id < n; id++ {
		var hb int
		c.Inspect(id, func(nd alg.Node) { hb = nd.(*core.Node).Counters().Heartbeats })
		want := 0
		if id == 0 {
			want = rounds * (n - 1)
		}
		if hb != want {
			t.Errorf("node %d sent %d heartbeats over %d ticks, want %d", id, hb, ticks, want)
		}
	}
}
