// Package mralloc is a distributed multi-resource allocation library:
// a production-shaped implementation of "Reducing synchronization cost
// in distributed multi-resource allocation problem" (Lejeune, Arantes,
// Sopena, Sens — INRIA RR-8689 / ICPP 2015).
//
// It offers two entry points:
//
//   - Simulate runs the paper's algorithms on a deterministic
//     discrete-event network and reports resource-use rate, waiting
//     times and message counts — the measurements of the paper's
//     evaluation. `mrsim fig` builds every figure on top of this.
//
//   - NewCluster starts a live lock manager: one goroutine per shard,
//     stepping the shard's nodes one activation at a time, running the
//     paper's algorithm for real — in-process by default, or spanning
//     OS processes over TCP (ClusterConfig.Peers), built by the one
//     builder of cmd/mrallocd, the ready-made daemon. Acquire/Release
//     give callers deadlock-free exclusive access to arbitrary subsets
//     of M resources with no global lock and no prior knowledge of the
//     conflict graph.
//
// See README.md (Architecture map) for the system inventory.
package mralloc

import (
	"fmt"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/driver"
	"mralloc/internal/experiments"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

// Algorithm selects one of the five systems of the paper's evaluation;
// NewCluster runs all but SharedMemory, which has no wire codec.
type Algorithm string

// The available algorithms.
const (
	// Incremental acquires resources in ascending identifier order with
	// one Naimi–Tréhel mutex per resource (baseline, domino effect).
	Incremental Algorithm = "incremental"
	// BouabdallahLaforest serializes registration through a global
	// control token (baseline, static scheduling).
	BouabdallahLaforest Algorithm = "bouabdallah-laforest"
	// CounterNoLoan is the paper's algorithm without the loan
	// mechanism ("Without loan").
	CounterNoLoan Algorithm = "counter-no-loan"
	// CounterLoan is the paper's full algorithm with loans ("With
	// loan", threshold 1). This is the recommended default.
	CounterLoan Algorithm = "counter-loan"
	// SharedMemory is the zero-communication scheduling bound ("in
	// shared memory"); simulation only.
	SharedMemory Algorithm = "shared-memory"
)

func (a Algorithm) factory() (alg.Factory, error) {
	if a == "" {
		a = CounterLoan
	}
	e, ok := experiments.AlgorithmByName(string(a))
	if !ok {
		return nil, fmt.Errorf("mralloc: unknown algorithm %q", a)
	}
	return experiments.Factory(e), nil
}

// SimConfig parameterizes one simulated run (defaults reproduce the
// paper's testbed shape).
type SimConfig struct {
	Algorithm Algorithm

	Nodes     int // N; default 32
	Resources int // M; default 80
	// MaxRequestSize is φ: each request draws its size uniformly from
	// [1, φ]. Default 16.
	MaxRequestSize int
	// Rho is the paper's load ratio ρ = β/(α+γ); lower is heavier.
	// Default 0.5 (the paper's high-load regime).
	Rho float64
	// CSMin/CSMax bound the critical-section duration α(x). Defaults
	// 5 ms and 35 ms.
	CSMin, CSMax time.Duration
	// Latency is the one-way network latency γ. Default 600 µs;
	// negative is an error.
	Latency time.Duration
	// Processing is the per-message service time δ at a receiving node
	// (deliveries to one node serialize). Zero selects the calibrated
	// default of 600 µs; negative disables the model entirely.
	Processing time.Duration

	// Duration is the simulated horizon (default 5 s); Warmup is
	// excluded from measurements (default 10% of Duration).
	Duration time.Duration
	Warmup   time.Duration

	Seed int64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Nodes == 0 {
		c.Nodes = 32
	}
	if c.Resources == 0 {
		c.Resources = 80
	}
	if c.MaxRequestSize == 0 {
		c.MaxRequestSize = 16
	}
	if c.Rho == 0 {
		c.Rho = 0.5
	}
	if c.CSMin == 0 {
		c.CSMin = 5 * time.Millisecond
	}
	if c.CSMax == 0 {
		c.CSMax = 35 * time.Millisecond
	}
	if c.Latency == 0 {
		c.Latency = 600 * time.Microsecond
	}
	if c.Processing == 0 {
		c.Processing = 600 * time.Microsecond
	} else if c.Processing < 0 {
		c.Processing = 0
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 10
	}
	return c
}

// Report is what one simulated run measures.
type Report struct {
	// UseRate is the fraction of time resources spend inside critical
	// sections, in [0, 1] (the paper's primary metric).
	UseRate float64
	// WaitMean and WaitStdDev summarize request waiting time.
	WaitMean, WaitStdDev time.Duration
	// Grants is the number of completed critical-section admissions.
	Grants int
	// Messages counts protocol traffic by message kind.
	Messages map[string]int64
	// MsgPerGrant is total traffic divided by grants — the paper's
	// synchronization cost.
	MsgPerGrant float64
}

// Simulate runs one deterministic simulation.
func Simulate(cfg SimConfig) (Report, error) {
	cfg = cfg.withDefaults()
	factory, err := cfg.Algorithm.factory()
	if err != nil {
		return Report{}, err
	}
	res, err := driver.Run(driver.Config{
		Workload: workload.Config{
			N:        cfg.Nodes,
			M:        cfg.Resources,
			Phi:      cfg.MaxRequestSize,
			AlphaMin: sim.Time(cfg.CSMin),
			AlphaMax: sim.Time(cfg.CSMax),
			Gamma:    sim.Time(cfg.Latency),
			Rho:      cfg.Rho,
			Seed:     cfg.Seed,
		},
		Processing: sim.Time(cfg.Processing),
		Warmup:     sim.Time(cfg.Warmup),
		Horizon:    sim.Time(cfg.Duration),
	}, factory)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		UseRate:     res.UseRate,
		WaitMean:    time.Duration(res.Waiting.Mean * float64(time.Millisecond)),
		WaitStdDev:  time.Duration(res.Waiting.StdDev * float64(time.Millisecond)),
		Grants:      res.Grants,
		Messages:    res.Messages.ByKind,
		MsgPerGrant: res.MsgPerGrant,
	}
	return rep, nil
}
