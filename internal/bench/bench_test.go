package bench

import (
	"encoding/json"
	"mralloc/internal/serve"
	"mralloc/internal/sim"
	"strings"
	"testing"
)

func TestGridNamesUniqueAndBaselineCovered(t *testing.T) {
	names := make(map[string]bool)
	for _, s := range Grid() {
		if s.Name == "" || s.Run == nil {
			t.Fatalf("malformed scenario %+v", s)
		}
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
	}
	// Schema stability: every frozen baseline row must still name a
	// scenario the grid can regenerate.
	for _, b := range Baseline {
		if !names[b.Scenario] {
			t.Errorf("baseline row %q has no scenario in the grid", b.Scenario)
		}
	}
}

func TestReportDeltasAndMarshal(t *testing.T) {
	current := []Result{
		{Scenario: Baseline[0].Scenario, NsPerOp: Baseline[0].NsPerOp / 2, AllocsPerOp: Baseline[0].AllocsPerOp / 4},
		{Scenario: "not/in/baseline", NsPerOp: 10},
	}
	r := NewReport(current)
	if r.Schema != Schema || r.Module != "mralloc" {
		t.Fatalf("report header %+v", r)
	}
	if len(r.Deltas) != 1 {
		t.Fatalf("deltas = %+v, want exactly the baseline-covered scenario", r.Deltas)
	}
	d := r.Deltas[0]
	if d.NsRatio < 0.45 || d.NsRatio > 0.55 {
		t.Fatalf("ns ratio = %v, want ≈0.5", d.NsRatio)
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || len(back.Baseline) != len(Baseline) {
		t.Fatal("report does not round-trip")
	}
	if !strings.Contains(r.Table(), Baseline[0].Scenario) {
		t.Fatal("table missing scenario row")
	}
}

// TestTCPLoopbackSmoke runs one tcp-loopback cell end to end — real
// sockets, real daemons, real serve.Clients — and gates the report schema:
// the wire-path fields the tier exists to record must be present and
// sane, and must survive a JSON round trip under the frozen schema
// name. This is the CI bench-delta job: a short run that fails on
// schema drift rather than on machine-dependent numbers.
func TestTCPLoopbackSmoke(t *testing.T) {
	grid := TCPLoopGrid()
	if len(grid) == 0 {
		t.Fatal("empty tcploop grid")
	}
	// One cell is enough for CI; the full grid runs via cmd/bench.
	r := Measure(grid[0])
	if r.NsPerOp <= 0 || r.AllocsPerOp <= 0 {
		t.Fatalf("no wall-clock measurement: %+v", r)
	}
	if r.WritesPerOp <= 0 || r.WireBytesPerOp <= 0 {
		t.Fatalf("wire-path metrics missing: %+v", r)
	}
	if r.AvgBatchFrames < 1 {
		t.Fatalf("avg batch below one frame per flush: %+v", r)
	}
	if r.MsgPerCS <= 0 {
		t.Fatalf("no protocol traffic recorded: %+v", r)
	}
	if r.BatchHist == "" {
		t.Fatalf("batch histogram missing: %+v", r)
	}
	// Schema drift gate: the row must round-trip with its wire-path
	// keys intact under the frozen schema string.
	rep := NewReport([]Result{r})
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["schema"] != Schema {
		t.Fatalf("schema = %v, want %v", raw["schema"], Schema)
	}
	row := raw["current"].([]any)[0].(map[string]any)
	for _, key := range []string{"scenario", "ns_per_op", "allocs_per_op",
		"writes_per_op", "wire_bytes_per_op", "avg_batch_frames", "batch_hist"} {
		if _, ok := row[key]; !ok {
			t.Errorf("report row missing %q (schema drift): %v", key, row)
		}
	}
}

// TestMeasureDeterministicMetrics runs one sim scenario twice and
// checks the protocol-level metrics reproduce exactly — the property
// that makes BENCH_*.json regenerable. Wall-clock fields only need to
// be positive.
func TestMeasureDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement in -short mode")
	}
	var s Scenario
	for _, c := range SimGrid() {
		if c.Name == "sim/n32/skew" {
			s = c
		}
	}
	if s.Run == nil {
		t.Fatal("scenario sim/n32/skew missing from grid")
	}
	a, b := Measure(s), Measure(s)
	if a.NsPerOp <= 0 || a.AllocsPerOp <= 0 {
		t.Fatalf("no wall-clock measurement: %+v", a)
	}
	if a.MsgPerCS <= 0 || a.GrantsPerOp <= 0 || a.EventsPerOp <= 0 {
		t.Fatalf("missing protocol metrics: %+v", a)
	}
	if a.MsgPerCS != b.MsgPerCS || a.GrantsPerOp != b.GrantsPerOp || a.EventsPerOp != b.EventsPerOp {
		t.Fatalf("protocol metrics not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestMicroAndLiveMeasure smoke-runs one micro and one live scenario
// end to end (the full grid runs via cmd/bench, not in tests).
func TestMicroAndLiveMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark measurement in -short mode")
	}
	for _, grid := range [][]Scenario{MicroGrid(), LiveGrid()} {
		r := Measure(grid[len(grid)-1])
		if r.NsPerOp <= 0 {
			t.Fatalf("%s: no measurement: %+v", r.Scenario, r)
		}
	}
}

// TestServeGridSmoke runs every cell of the sessions-per-node grid
// with a tiny horizon — the CI bench-smoke job, catching schema or
// crash regressions in minutes-not-hours. It asserts the shape of the
// output (grants happen, quantiles are monotone and present), not its
// wall-clock values.
func TestServeGridSmoke(t *testing.T) {
	for _, n := range []int{8, 32} {
		for _, s := range []int{1, 8, 64} {
			for _, p := range []serve.Policy{serve.FIFO, serve.SSF, serve.EDF} {
				res, err := ServeCell(n, s, p, 60*sim.Millisecond)
				if err != nil {
					t.Fatalf("n%d/s%d/%s: %v", n, s, p, err)
				}
				if res.Grants <= 0 {
					t.Errorf("n%d/s%d/%s: no grants", n, s, p)
				}
				w := res.Waiting
				if w.P50 > w.P95 || w.P95 > w.P99 || w.P99 > w.Max {
					t.Errorf("n%d/s%d/%s: quantiles not monotone: %+v", n, s, p, w)
				}
			}
		}
	}
}

// TestServeGridScales pins the scaling claim the grid exists to
// measure: at fixed horizon, more sessions per node must complete
// more critical sections, and queue waits must grow.
func TestServeGridScales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell comparison in -short mode")
	}
	one, err := ServeCell(8, 1, serve.FIFO, 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	many, err := ServeCell(8, 64, serve.FIFO, 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if many.Grants <= 2*one.Grants {
		t.Errorf("64 sessions granted %d vs %d single-session — multiplexing not engaging", many.Grants, one.Grants)
	}
	if many.Waiting.P99 <= one.Waiting.P99 {
		t.Errorf("p99 wait did not grow under 64× multiplexing: %v vs %v", many.Waiting.P99, one.Waiting.P99)
	}
}

// TestBackpressureSmoke runs the stalled-peer cell once: the scenario
// itself fails if the coalescer queue ever exceeds the byte budget, so
// a passing run is the bounded-memory proof.
func TestBackpressureSmoke(t *testing.T) {
	grid := BackpressureGrid()
	if len(grid) == 0 {
		t.Fatal("empty backpressure grid")
	}
	r := Measure(grid[0])
	if r.WritesPerOp <= 0 || r.WireBytesPerOp <= 0 {
		t.Fatalf("backpressure cell recorded no writes: %+v", r)
	}
}
