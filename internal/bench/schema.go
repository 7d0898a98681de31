package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Schema is the BENCH_*.json format version. Bump it only when a field
// changes meaning; adding scenarios keeps the schema number.
const Schema = "mralloc-bench/1"

// Result is one scenario measurement. Wall-clock fields (NsPerOp,
// AllocsPerOp, BytesPerOp, CSPerSec) are machine-dependent; the
// protocol fields (MsgPerCS, GrantsPerOp, EventsPerOp) are
// deterministic for a given code revision.
type Result struct {
	Scenario    string  `json:"scenario"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsgPerCS    float64 `json:"msg_per_cs,omitempty"`
	GrantsPerOp int64   `json:"grants_per_op,omitempty"`
	EventsPerOp int64   `json:"events_per_op,omitempty"`
	CSPerSec    float64 `json:"cs_per_sec,omitempty"`

	// Wait-time distribution of the scenario's requests (enqueue to
	// grant, milliseconds, streaming P² quantiles). Deterministic for
	// sim-driven scenarios; the serve/* sessions grid exists to expose
	// exactly these tails, which mean/max hide under multiplexed load.
	WaitMeanMS float64 `json:"wait_mean_ms,omitempty"`
	WaitP50MS  float64 `json:"wait_p50_ms,omitempty"`
	WaitP95MS  float64 `json:"wait_p95_ms,omitempty"`
	WaitP99MS  float64 `json:"wait_p99_ms,omitempty"`

	// Wire-path counters of the tcploop/* tier (coalescing writers of
	// the transports, client ports and clients, summed). WritesPerOp is
	// the syscall proxy the batching work targets; AvgBatchFrames is
	// frames per flush; BatchHist buckets flushes by frame count
	// (wire.CoalescerStats.HistString).
	WritesPerOp    float64 `json:"writes_per_op,omitempty"`
	WireBytesPerOp float64 `json:"wire_bytes_per_op,omitempty"`
	AvgBatchFrames float64 `json:"avg_batch_frames,omitempty"`
	BatchHist      string  `json:"batch_hist,omitempty"`

	// Open-loop tier (openloop/* rows). OfferedRPS is the realized
	// arrival rate; GrantRPS all grants/s; GoodputRPS only grants whose
	// sojourn met the 50ms tier SLO; ShedRate the fraction of arrivals
	// lost (denied, timed out or dropped). SLOMaxRPS is the knee-search
	// result of the openloop/*/slo rows: the highest offered rate the
	// configuration sustained within the SLO.
	OfferedRPS float64 `json:"offered_rps,omitempty"`
	GrantRPS   float64 `json:"grant_rps,omitempty"`
	GoodputRPS float64 `json:"goodput_rps,omitempty"`
	ShedRate   float64 `json:"shed_rate,omitempty"`
	SLOMaxRPS  float64 `json:"slo_max_rps,omitempty"`

	// Recovery tier (recovery/* rows): reliable-link work per op over
	// the lease-armed Reliable→Chaos→TCP stack. The clean cell should
	// report ~0 for both; the faulted cell's retransmits_per_op is the
	// price of the injected loss, dups_dropped_per_op the receiver-side
	// dedup absorbing the injected duplication.
	RetransmitsPerOp float64 `json:"retransmits_per_op,omitempty"`
	DupsDroppedPerOp float64 `json:"dups_dropped_per_op,omitempty"`
}

// Delta compares one scenario across the baseline and current columns.
// Ratios are current/baseline: below 1.0 is an improvement.
type Delta struct {
	Scenario    string  `json:"scenario"`
	NsRatio     float64 `json:"ns_ratio"`
	AllocsRatio float64 `json:"allocs_ratio"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Schema    string `json:"schema"`
	Module    string `json:"module"`
	Command   string `json:"command"`
	GoVersion string `json:"go_version"`
	GoOSArch  string `json:"goos_goarch"`

	// Notes carry caveats a reader needs before comparing columns.
	Notes []string `json:"notes,omitempty"`

	// Baseline is the frozen pre-optimization measurement (see
	// baseline.go); Current is regenerated by cmd/bench.
	Baseline []Result `json:"baseline"`
	Current  []Result `json:"current"`
	Deltas   []Delta  `json:"deltas"`
}

// NewReport assembles a report from current measurements against the
// frozen baseline.
func NewReport(current []Result) Report {
	r := Report{
		Schema:    Schema,
		Module:    "mralloc",
		Command:   "go run ./cmd/bench",
		GoVersion: runtime.Version(),
		GoOSArch:  runtime.GOOS + "/" + runtime.GOARCH,
		Notes: []string{
			"baseline predates the Floyd sampler, which changed the request draw of every Sample()-driven sim scenario; their deltas mix the optimization effect with a workload shift (compare msg_per_cs/grants_per_op/events_per_op across columns to gauge it)",
			"micro/* and live/* scenarios are workload-identical across columns; their deltas are pure optimization effect",
			"tcploop/* rows have no frozen baseline: they price the wire path (writes_per_op, wire_bytes_per_op, avg_batch_frames) under the protocol traffic msg_per_cs reports",
			"largeN/* rows are payload-path twins at N∈{128,512} over TCP loopback: …/nodelta disables delta-encoded token state against the full path (…/delta), so wire_bytes_per_op pins the delta saving; workloads are identical, msg_per_cs matches within run jitter",
			"cross-report comparisons (e.g. BENCH_2.json — the PR 4 record — vs BENCH_3.json) should anchor on the protocol columns and allocs_per_op; wall-clock ns/op varies with machine load between report generations",
			"recovery/* rows run the lease-armed reliable stack (live → Reliable → Chaos → TCP loopback): the clean cell prices the wrapper with zero faults (retransmits_per_op ~0), the faulted cell injects drop+dup at the fabric so retransmits_per_op/dups_dropped_per_op show the recovery machinery at work; fault draws are seeded but interleave with real goroutine timing, so these columns jitter across runs",
			"openloop/* rows decouple arrivals from completions (Poisson arrivals at offered_rps over the tcploop fabric): goodput_rps counts only grants within the 50ms tier SLO while grant_rps counts all of them — past the knee unbounded FIFO keeps grant_rps near capacity at timeout-scale sojourns (goodput_rps ~0), adaptive sheds (shed_rate) to hold p99 inside the SLO; rates are machine-dependent, compare policies within one report only",
			"sharded/* rows run one contended workload — identical resource draws, N=2, M=64 — on the latency-fabric cluster at G∈{1,4,16} resource shards: the fabric serializes each (shard,link) at one delivery per 200µs, so cs_per_sec across the g* rows prices per-shard allocator parallelism itself (single rows keep every draw inside one G16-aligned block; cross rows span a block pair landing in different shards at every G>1, with ordered ascending-shard locking vs twophase parallel-submit twins); wall-clock rates are machine-dependent, compare G values and twins within one report",
		},
		Baseline: Baseline,
		Current:  current,
	}
	base := make(map[string]Result, len(Baseline))
	for _, b := range Baseline {
		base[b.Scenario] = b
	}
	for _, c := range current {
		b, ok := base[c.Scenario]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		d := Delta{
			Scenario: c.Scenario,
			NsRatio:  round3(float64(c.NsPerOp) / float64(b.NsPerOp)),
		}
		if b.AllocsPerOp > 0 {
			d.AllocsRatio = round3(float64(c.AllocsPerOp) / float64(b.AllocsPerOp))
		}
		r.Deltas = append(r.Deltas, d)
	}
	sort.Slice(r.Deltas, func(i, j int) bool { return r.Deltas[i].Scenario < r.Deltas[j].Scenario })
	return r
}

// MergeReports grows prior by the rows (and notes, and deltas) of next
// that prior lacks, keeping everything prior already had — header,
// rows, deltas — untouched, so a merged report stays byte-comparable
// with its ancestor where they overlap. It is how a new tier lands in
// BENCH_4.json without remeasuring (and so perturbing) the BENCH_3
// rows it inherits.
func MergeReports(prior, next Report) Report {
	out := prior
	notes := make(map[string]bool, len(prior.Notes))
	for _, n := range prior.Notes {
		notes[n] = true
	}
	for _, n := range next.Notes {
		if !notes[n] {
			out.Notes = append(out.Notes, n)
		}
	}
	have := make(map[string]bool, len(prior.Current))
	for _, r := range prior.Current {
		have[r.Scenario] = true
	}
	for _, r := range next.Current {
		if !have[r.Scenario] {
			out.Current = append(out.Current, r)
		}
	}
	deltas := make(map[string]bool, len(prior.Deltas))
	for _, d := range prior.Deltas {
		deltas[d.Scenario] = true
	}
	for _, d := range next.Deltas {
		if !deltas[d.Scenario] {
			out.Deltas = append(out.Deltas, d)
		}
	}
	return out
}

// Marshal renders the report as stable, indented JSON.
func (r Report) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Table renders a human comparison table for terminal output.
func (r Report) Table() string {
	base := make(map[string]Result, len(r.Baseline))
	for _, b := range r.Baseline {
		base[b.Scenario] = b
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %14s %12s %12s %10s\n",
		"scenario", "ns/op", "base ns/op", "allocs/op", "base allocs", "msg/cs")
	for _, c := range r.Current {
		b := base[c.Scenario]
		baseNs, baseAllocs := "-", "-"
		if b.NsPerOp > 0 {
			baseNs = fmt.Sprintf("%d", b.NsPerOp)
			baseAllocs = fmt.Sprintf("%d", b.AllocsPerOp)
		}
		msg := "-"
		if c.MsgPerCS > 0 {
			msg = fmt.Sprintf("%.2f", c.MsgPerCS)
		}
		fmt.Fprintf(&sb, "%-28s %14d %14s %12d %12s %10s\n",
			c.Scenario, c.NsPerOp, baseNs, c.AllocsPerOp, baseAllocs, msg)
	}
	return sb.String()
}
