package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a p99 over 500 samples is the 5th-largest value, which
// one burst on a shared box moves at will.
const minTailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. It refuses a tail with fewer than minTailSamples
// samples beyond it, so a caller cannot report a percentile the run was
// too short to resolve.
func percentile(sorted []int64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3g of no samples", p)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTailSamples {
		return 0, fmt.Errorf("percentile %.3g of %d samples has %d beyond it, need %d", p, n, beyond, minTailSamples)
	}
	return float64(sorted[rank-1]), nil
}

// quantile is the p-quantile (0 ≤ p ≤ 1) of an unsorted float slice
// (not modified), interpolating between neighbours; 0 for none.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(at)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// Every time and rate of a run is reported as its quiet decile: the
// value that the best tenth of the run's slices reach or beat. The host
// this runs on is shared, and a neighbour slows the same code by
// 30–100 % for seconds at a time (README.md, Calibration): the median
// slice of a run that was disturbed for half its window lands on either
// side of the gap by chance, the quiet decile stays with the undisturbed
// slices while a fifth of the window is left to them. On a quiet run the
// two differ by two or three per cent.
func quietLow(v []float64) float64  { return quantile(v, 0.10) } // times: lower is better
func quietHigh(v []float64) float64 { return quantile(v, 0.90) } // rates: higher is better
