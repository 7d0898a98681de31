package network

import (
	"math/rand"

	"mralloc/internal/sim"
)

// LatencyModel yields the one-way delay of a message on the (from, to)
// link. Implementations must be side-effect free apart from consuming
// the supplied random stream.
type LatencyModel interface {
	Latency(from, to NodeID, r *rand.Rand) sim.Time
}

// Constant is the paper's testbed model: every link takes the same γ
// (≈0.6 ms on the 10 GbE Grid'5000 cluster).
type Constant struct{ D sim.Time }

// Latency implements LatencyModel.
func (c Constant) Latency(_, _ NodeID, _ *rand.Rand) sim.Time { return c.D }

// Uniform draws each delay uniformly from [Min, Max], modelling jitter.
// FIFO per link is restored by the network layer.
type Uniform struct{ Min, Max sim.Time }

// Latency implements LatencyModel.
func (u Uniform) Latency(_, _ NodeID, r *rand.Rand) sim.Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + sim.Time(r.Int63n(int64(u.Max-u.Min)))
}

// Hierarchical models the "hierarchical physical topology such as
// Clouds" from the paper's conclusion: nodes live in zones; intra-zone
// messages take Local, cross-zone messages take Remote.
type Hierarchical struct {
	Zone   func(NodeID) int
	Local  LatencyModel
	Remote LatencyModel
}

// Latency implements LatencyModel.
func (h Hierarchical) Latency(from, to NodeID, r *rand.Rand) sim.Time {
	if h.Zone(from) == h.Zone(to) {
		return h.Local.Latency(from, to, r)
	}
	return h.Remote.Latency(from, to, r)
}

// TwoZones splits n nodes into two equal halves — the standard
// configuration of the cloud experiment (extension E2,
// experiments.CloudExperiment).
func TwoZones(n int) func(NodeID) int {
	half := n / 2
	return func(id NodeID) int {
		if int(id) < half {
			return 0
		}
		return 1
	}
}
