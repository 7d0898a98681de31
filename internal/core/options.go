package core

import "mralloc/internal/sim"

// MarkFunc is the paper's function A: it folds the counter vector of a
// request (entry r holds the counter value obtained for resource r,
// zero for resources the request does not name) into a real number.
// Together with the site identifier it totally orders requests ("/").
//
// Liveness demands that A make every pending request eventually minimal
// (hypothesis 6): any aggregation that grows as counters grow works,
// because counters increase at every new request.
type MarkFunc func(vector []int64) float64

// AvgNonZero is the paper's evaluation choice: the average of the
// non-zero entries. It avoids starvation "only by calling the function
// and not inducing any additional communication cost" (§5).
func AvgNonZero(v []int64) float64 {
	var sum int64
	var n int
	for _, x := range v {
		if x != 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MaxNonZero orders requests by their largest counter value — a
// "last-resource-acquired" policy (ablation A1).
func MaxNonZero(v []int64) float64 {
	var max int64
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	return float64(max)
}

// SumNonZero orders requests by the sum of counter values, penalizing
// large requests (ablation A1).
func SumNonZero(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum)
}

// MinNonZero orders requests by their earliest obtained counter — the
// closest analogue of FIFO per first resource (ablation A1).
func MinNonZero(v []int64) float64 {
	var min int64
	found := false
	for _, x := range v {
		if x != 0 && (!found || x < min) {
			min = x
			found = true
		}
	}
	return float64(min)
}

// Options configure one instance of the algorithm.
type Options struct {
	// Loan enables the dynamic-scheduling loan mechanism (§3.4, §4.5).
	Loan bool
	// LoanThreshold is the maximum number of missing resources at which
	// a waiting site asks for a loan. The paper's evaluation uses 1.
	// (§4.5's prose says "smaller or equal to a given threshold"; the
	// pseudo-code uses equality — we implement ≤, identical at 1.)
	LoanThreshold int
	// Mark is the function A. Nil means AvgNonZero.
	Mark MarkFunc

	// DisableSingleResOpt turns off the §4.6.1 fast path (single
	// resource requests skip the counter round-trip).
	DisableSingleResOpt bool
	// DisableShortcut turns off every father-pointer repoint a received
	// message causes: the versioned holdings records carry (deviation 6,
	// doc.go) that generalize §4.6.2's shortcut on Counter receipt. The
	// node then keeps no holdings log, and its records carry none.
	// Pointers then move only with the tokens themselves and on
	// regeneration.
	DisableShortcut bool
	// DisableForwardStop turns off the §4.6.2 early stop of ReqRes
	// forwarding at sites that know they will receive the token first.
	DisableForwardStop bool
	// DisableAggregation turns off §4.2.2 message aggregation; every
	// buffered item then travels as its own message (ablation A2).
	DisableAggregation bool

	// LeaseTTL enables token leases when positive: every token owner
	// heartbeats its holdings to the per-resource steward, and a steward
	// that has heard nothing for 4×TTL regenerates the token under a
	// bumped epoch (lease.go). Zero disables leases entirely — the
	// original crash-free protocol. Leases require a time source: the
	// environment must drive Node.Tick.
	LeaseTTL sim.Time
}

// WithLoan is the paper's "With loan" configuration (threshold 1).
func WithLoan() Options { return Options{Loan: true, LoanThreshold: 1} }

// WithoutLoan is the paper's "Without loan" configuration.
func WithoutLoan() Options { return Options{} }

func (o Options) mark() MarkFunc {
	if o.Mark == nil {
		return AvgNonZero
	}
	return o.Mark
}

func (o Options) threshold() int {
	if o.LoanThreshold <= 0 {
		return 1
	}
	return o.LoanThreshold
}

// hbInterval is how often an owner renews its leases: a third of the
// TTL gives a holder two retries before the grant it relies on lapses.
func (o Options) hbInterval() sim.Time { return o.LeaseTTL / 3 }
