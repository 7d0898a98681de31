package main

import (
	"runtime"
	"time"
)

// probeFor is how long one probe loop measures. Probes are unit costs
// read next to the traced spans; 40 ms is thousands of iterations of
// the slowest of them.
const probeFor = 40 * time.Millisecond

// probe times fn in a tight single-goroutine loop and reports the mean
// nanoseconds and heap allocations per call.
func probe(fn func()) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < 64; i++ { // warm caches, pools and lazy set-up
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for batch := 64; time.Since(start) < probeFor; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}
