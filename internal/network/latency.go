package network

import "mralloc/internal/sim"

// LatencyModel yields the one-way delay of a message on the (from, to)
// link. A model is a function of the link alone, so every message of a
// link takes the same delay and links stay FIFO without help.
type LatencyModel interface {
	Latency(from, to NodeID) sim.Time
}

// Constant is the paper's testbed model: every link takes the same γ
// (≈0.6 ms on the 10 GbE Grid'5000 cluster).
type Constant struct{ D sim.Time }

// Latency implements LatencyModel.
func (c Constant) Latency(_, _ NodeID) sim.Time { return c.D }

// Hierarchical models the "hierarchical physical topology such as
// Clouds" from the paper's conclusion: nodes live in zones; intra-zone
// messages take Local, cross-zone messages take Remote.
type Hierarchical struct {
	Zone   func(NodeID) int
	Local  LatencyModel
	Remote LatencyModel
}

// Latency implements LatencyModel.
func (h Hierarchical) Latency(from, to NodeID) sim.Time {
	if h.Zone(from) == h.Zone(to) {
		return h.Local.Latency(from, to)
	}
	return h.Remote.Latency(from, to)
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
