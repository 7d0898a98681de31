// Package verify checks at runtime the two correctness properties the
// paper proves in Annex B, plus the concurrency property:
//
//   - safety: two conflicting processes are never simultaneously in
//     their critical sections — equivalently, every resource has at
//     most one holder at any instant (Theorem 1);
//   - liveness: every issued request is eventually granted (Theorem 3),
//     checked as "no request outlives the run".
//
// The monitor is driven by the same grant/release notifications the
// metrics layer receives, so any interleaving a simulation explores is
// checked exhaustively, not sampled.
package verify

import (
	"fmt"
	"maps"
	"slices"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/sim"
)

// Violation describes a broken invariant. It is delivered to the
// configured report function (tests fail, CLIs abort).
type Violation struct {
	At   sim.Time
	Desc string
}

func (v Violation) Error() string {
	return fmt.Sprintf("invariant violated at %v: %s", v.At, v.Desc)
}

// Monitor observes grant and release events.
type Monitor struct {
	holder  []network.NodeID // per resource; None when free
	pending map[network.NodeID]sim.Time
	report  func(Violation)
	grants  int
}

// New creates a monitor for m resources. report receives violations; it
// may panic or record, but the monitor keeps a best-effort state either
// way.
func New(m int, report func(Violation)) *Monitor {
	h := make([]network.NodeID, m)
	for i := range h {
		h[i] = network.None
	}
	return &Monitor{holder: h, pending: make(map[network.NodeID]sim.Time), report: report}
}

// Requested notes that site s issued a request at time t.
func (mo *Monitor) Requested(s network.NodeID, t sim.Time) {
	if prev, dup := mo.pending[s]; dup {
		mo.report(Violation{t, fmt.Sprintf("site %d issued a new request while one from %v is pending (hypothesis 4)", s, prev)})
	}
	mo.pending[s] = t
}

// Granted notes that site s entered its CS holding rs at time t.
func (mo *Monitor) Granted(s network.NodeID, rs resource.Set, t sim.Time) {
	if _, ok := mo.pending[s]; !ok {
		mo.report(Violation{t, fmt.Sprintf("site %d granted without a pending request", s)})
	}
	delete(mo.pending, s)
	mo.grants++
	rs.ForEach(func(r resource.ID) {
		if h := mo.holder[r]; h != network.None {
			mo.report(Violation{t, fmt.Sprintf("resource %d granted to site %d while held by site %d (safety)", r, s, h)})
		}
		mo.holder[r] = s
	})
}

// Released notes that site s left its CS, freeing rs, at time t.
func (mo *Monitor) Released(s network.NodeID, rs resource.Set, t sim.Time) {
	rs.ForEach(func(r resource.ID) {
		if h := mo.holder[r]; h != s {
			mo.report(Violation{t, fmt.Sprintf("site %d released resource %d held by %d", s, r, h)})
		}
		mo.holder[r] = network.None
	})
}

// Grants reports how many critical sections completed admission.
func (mo *Monitor) Grants() int { return mo.grants }

// CheckQuiescent verifies liveness at the end of a drained run: with no
// events left, every request must have been granted and every resource
// freed. Runs truncated at a horizon should use PendingRequests instead.
// Pending requests are reported in site order (as by CheckLiveness), so
// the first violation, all a panicking report shows, is the same on
// every run.
func (mo *Monitor) CheckQuiescent(t sim.Time) {
	for _, s := range slices.Sorted(maps.Keys(mo.pending)) {
		mo.report(Violation{t, fmt.Sprintf("request from site %d issued at %v never granted (liveness)", s, mo.pending[s])})
	}
	for r, h := range mo.holder {
		if h != network.None {
			mo.report(Violation{t, fmt.Sprintf("resource %d still held by site %d at quiescence", r, h)})
		}
	}
}

// CheckLiveness verifies that at time t no pending request has waited
// longer than bound — the bounded-liveness assertion for fault-injection
// runs, where CheckQuiescent's fully-drained form only applies after
// the faults stop. bound must cover the configured recovery horizon
// (retransmission backoff, lease expiry plus regeneration).
func (mo *Monitor) CheckLiveness(t, bound sim.Time) {
	for _, s := range slices.Sorted(maps.Keys(mo.pending)) {
		if since := mo.pending[s]; t-since > bound {
			mo.report(Violation{t, fmt.Sprintf("request from site %d pending for %v, bound %v (liveness under faults)", s, t-since, bound)})
		}
	}
}

// PendingRequests reports the requests not yet granted (expected to be
// small and recent when a run is cut off at its horizon).
func (mo *Monitor) PendingRequests() map[network.NodeID]sim.Time {
	out := make(map[network.NodeID]sim.Time, len(mo.pending))
	for k, v := range mo.pending {
		out[k] = v
	}
	return out
}

// OldestPending returns the issue time of the oldest ungranted request
// and whether one exists — the starvation watchdog used by long runs.
func (mo *Monitor) OldestPending() (sim.Time, bool) {
	var oldest sim.Time
	found := false
	for _, t := range mo.pending {
		if !found || t < oldest {
			oldest = t
			found = true
		}
	}
	return oldest, found
}
