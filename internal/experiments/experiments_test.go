package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mralloc/internal/driver"
	"mralloc/internal/explore"
	"mralloc/internal/network"
	"mralloc/internal/sim"
	"mralloc/internal/workload"
)

// tiny is a fast scale for tests; relative orderings asserted here are
// robust even at this size.
var tiny = Scale{Warmup: 100 * sim.Millisecond, Horizon: 1500 * sim.Millisecond, Seeds: 1}

func TestFactoryCoversAllAlgorithms(t *testing.T) {
	for _, a := range fig5Algorithms {
		nodes := Factory(a)(4, 8)
		if len(nodes) != 4 {
			t.Fatalf("%s factory built %d nodes", a, len(nodes))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm accepted")
		}
	}()
	Factory("nope")
}

func TestLoadRho(t *testing.T) {
	if MediumLoad.Rho() != 1 || HighLoad.Rho() != 0.1 {
		t.Fatal("load mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown load accepted")
		}
	}()
	Load("x").Rho()
}

func TestRunPointAllAlgorithms(t *testing.T) {
	for _, a := range fig5Algorithms {
		res, err := Run(Point{Alg: a, Phi: 8, Load: HighLoad, Seed: 3}, tiny)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Grants == 0 {
			t.Fatalf("%s made no progress", a)
		}
		if res.UseRate <= 0 || res.UseRate > 1 {
			t.Fatalf("%s use rate %v", a, res.UseRate)
		}
	}
}

func TestRunCellAveragesSeeds(t *testing.T) {
	sc := tiny
	sc.Seeds = 2
	c, err := RunCell(Point{Alg: WithLoan, Phi: 8, Load: HighLoad}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Grants == 0 || c.UseRate <= 0 {
		t.Fatalf("cell = %+v", c)
	}
}

// TestHeadlineOrdering asserts the paper's central claims at small
// scale with generous slack: at high load and moderate request sizes,
// the counter algorithms beat Bouabdallah–Laforest on use rate, and the
// shared-memory bound beats everyone.
func TestHeadlineOrdering(t *testing.T) {
	// φ=16: at φ=8 the use-rate gap between the counter algorithm and
	// the global lock is ~1% and flips with the workload draw; from
	// φ=16 up the paper's ordering is robust even at the tiny scale.
	get := func(a Algorithm) Cell {
		t.Helper()
		c, err := RunCell(Point{Alg: a, Phi: 16, Load: HighLoad}, tiny)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bl := get(Bouabdallah)
	noLoan := get(WithoutLoan)
	shared := get(SharedMem)
	if noLoan.UseRate <= bl.UseRate {
		t.Errorf("counter algorithm (%.3f) did not beat the global lock (%.3f) at φ=16 high load",
			noLoan.UseRate, bl.UseRate)
	}
	if shared.UseRate < noLoan.UseRate*0.95 {
		t.Errorf("shared-memory bound (%.3f) below the distributed algorithm (%.3f)",
			shared.UseRate, noLoan.UseRate)
	}
	if noLoan.WaitMean >= bl.WaitMean {
		t.Errorf("counter algorithm waiting (%.1f ms) not below global lock (%.1f ms)",
			noLoan.WaitMean, bl.WaitMean)
	}
}

func TestFigure6Shape(t *testing.T) {
	tab, err := Figure6(HighLoad, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Header) != 6 {
		t.Fatalf("table shape %dx%d, want 3x6 (mean, stddev, p50/p95/p99)", len(tab.Rows), len(tab.Header))
	}
	if !strings.Contains(tab.String(), "Bouabdallah") {
		t.Fatal("table missing algorithm name")
	}
}

func TestFigure7Shape(t *testing.T) {
	tab, err := Figure7(MediumLoad, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Header) != 1+len(Fig7Buckets) {
		t.Fatalf("header = %v", tab.Header)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("x", "y")
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "2.5", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2.5\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := Point{Alg: WithLoan, Phi: 0, Load: HighLoad} // invalid φ
	var cell Cell
	var err error
	if e := sweep(tiny, []job{{point: bad, out: &cell, err: &err}}); e == nil {
		t.Fatal("sweep swallowed the error")
	}
}

func TestMaddiFactoryAndRun(t *testing.T) {
	res, err := Run(Point{Alg: Maddi, Phi: 4, Load: HighLoad, Seed: 2}, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants == 0 {
		t.Fatal("broadcast baseline made no progress")
	}
	if res.Messages.ByKind["Maddi.Request"] == 0 {
		t.Fatalf("messages = %v", res.Messages)
	}
}

// TestMessageComplexityOrdering pins the §1–§2 claims: the broadcast
// baseline costs far more messages per CS than any tree-routed
// algorithm, at every φ.
func TestMessageComplexityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tab, err := MessageComplexity(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || len(tab.Header) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	// Row 0 is Maddi; compare column-wise against every other row.
	parse := func(s string) float64 {
		var f float64
		if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
			t.Fatalf("cell %q: %v", s, err)
		}
		return f
	}
	for col := 1; col < len(tab.Header); col++ {
		maddi := parse(tab.Rows[0][col])
		for row := 1; row < len(tab.Rows); row++ {
			other := parse(tab.Rows[row][col])
			if maddi <= other {
				t.Errorf("%s: broadcast %v not above %s's %v",
					tab.Header[col], maddi, tab.Rows[row][0], other)
			}
		}
	}
}

// TestFairness pins the fairness findings: the counter algorithms stay
// near-perfectly fair (Jain > 0.9) while the incremental baseline's
// domino effect is visibly unfair.
func TestFairness(t *testing.T) {
	tab, err := FairnessSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(name string) (float64, float64) {
		t.Helper()
		for _, row := range tab.Rows {
			if row[0] == name {
				var jw, jt float64
				fmt.Sscanf(row[1], "%g", &jw)
				fmt.Sscanf(row[2], "%g", &jt)
				return jw, jt
			}
		}
		t.Fatalf("row %q missing", name)
		return 0, 0
	}
	withLoanJW, withLoanJT := get(string(WithLoan))
	incJW, _ := get(string(Incremental))
	if withLoanJW < 0.9 || withLoanJT < 0.9 {
		t.Errorf("counter algorithm unfair: jain wait %.3f throughput %.3f", withLoanJW, withLoanJT)
	}
	if incJW >= withLoanJW {
		t.Errorf("incremental (%.3f) not less fair than counter (%.3f)", incJW, withLoanJW)
	}
}

// TestAllAlgorithmsUnderJitter: correctness must not depend on which
// delivery order a latency model happens to produce. Every algorithm is
// searched over every delivery order FIFO links allow on the committed
// shapes (explore.Shapes): safety and hypothesis 4 at every state, every
// request granted at every terminal state. Shapes past the state budget
// are cut off and logged as such. -short keeps the N = 2 shapes.
func TestAllAlgorithmsUnderJitter(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, _ := AlgorithmByName(name)
		for _, sh := range explore.Shapes() {
			if testing.Short() && sh.N > 2 {
				continue
			}
			start := time.Now()
			res := explore.Search(Factory(a), sh, explore.Options{})
			t.Logf("%-22s %-14s %v (%v)", name, sh.Name, res, time.Since(start).Round(time.Millisecond))
			if res.Err != nil {
				t.Errorf("%s on %s: %v", name, sh.Name, res.Err)
			}
		}
	}
}

// TestAllAlgorithmsOnHierarchy reruns every algorithm on the two-zone
// topology with zoned workloads.
func TestAllAlgorithmsOnHierarchy(t *testing.T) {
	lat := network.Hierarchical{
		Zone:   network.TwoZones(32),
		Local:  network.Constant{D: 100 * sim.Microsecond},
		Remote: network.Constant{D: 2 * sim.Millisecond},
	}
	for _, a := range []Algorithm{Incremental, Bouabdallah, WithoutLoan, WithLoan, Maddi, Manager} {
		p := Point{Alg: a, Phi: 6, Load: HighLoad, Seed: 3, Latency: lat, Zones: 2, LocalBias: 0.8}
		res, err := Run(p, tiny)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Grants == 0 {
			t.Fatalf("%s stalled on hierarchy", a)
		}
	}
}

// TestScalesBeyondPaper doubles the paper's system (N=64, M=160) for
// every algorithm: correctness must not be an artifact of the 32/80
// shape. Guarded by -short because each run simulates a full second on
// a bigger event volume.
func TestScalesBeyondPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling run")
	}
	for _, a := range []Algorithm{Incremental, Bouabdallah, WithoutLoan, WithLoan, SharedMem, Maddi, Manager} {
		cfg := driver.Config{
			Workload: workload.Config{
				N: 64, M: 160, Phi: 12,
				AlphaMin: 5 * sim.Millisecond,
				AlphaMax: 35 * sim.Millisecond,
				Gamma:    600 * sim.Microsecond,
				Rho:      0.3,
				Seed:     13,
			},
			Processing: Proc,
			Warmup:     100 * sim.Millisecond,
			Horizon:    1 * sim.Second,
			Drain:      true,
		}
		res, err := driver.Run(cfg, Factory(a))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Ungranted != 0 || res.Grants == 0 {
			t.Fatalf("%s at N=64: grants=%d ungranted=%d", a, res.Grants, res.Ungranted)
		}
	}
}

// TestFigure5Shape runs the full five-algorithm sweep on a reduced φ
// grid (restored afterwards) and sanity-checks every cell.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	old := PhiGrid
	PhiGrid = []int{1, 8, 40}
	defer func() { PhiGrid = old }()
	tab, err := Figure5(HighLoad, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Header) != 6 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	for _, row := range tab.Rows {
		for col := 1; col < len(row); col++ {
			var v float64
			if _, err := fmt.Sscanf(row[col], "%g", &v); err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			if v <= 0 || v > 100 {
				t.Fatalf("use rate %v%% out of range in %v", v, row)
			}
		}
	}
}

func TestThresholdSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tab, err := ThresholdSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || tab.Rows[0][0] != "0" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	if len(tab.Notes) == 0 {
		t.Fatal("threshold table should explain its baseline row")
	}
}

func TestMarkSweepShape(t *testing.T) {
	tab, err := MarkSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || !strings.Contains(tab.Rows[0][0], "avg") {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestOptsSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tab, err := OptsSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 6 variants × 2 φ
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The all-off variant must cost more messages than all-on at φ=16.
	var on, off float64
	for _, row := range tab.Rows {
		if row[1] != "16" {
			continue
		}
		switch row[0] {
		case "all on (paper)":
			fmt.Sscanf(row[2], "%g", &on)
		case "all off":
			fmt.Sscanf(row[2], "%g", &off)
		}
	}
	if on <= 0 || off <= on {
		t.Fatalf("optimizations not visible: on=%v off=%v", on, off)
	}
}

func TestCloudExperimentShape(t *testing.T) {
	tab, err := CloudExperiment(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The headline of extension E2: the counter algorithm beats BL on
	// use rate when traffic is zone-local.
	var bl, counter float64
	fmt.Sscanf(tab.Rows[0][1], "%g", &bl)
	fmt.Sscanf(tab.Rows[1][1], "%g", &counter)
	if counter <= bl {
		t.Fatalf("cloud: counter (%v%%) did not beat the control token (%v%%)", counter, bl)
	}
}

func TestHotspotSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	tab, err := HotspotSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 algorithms × 3 skews
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Skew must hurt: for each algorithm, use rate at skew 1.5 below
	// skew 0.
	for i := 0; i < 3; i++ {
		var at0, at15 float64
		fmt.Sscanf(tab.Rows[3*i][2], "%g", &at0)
		fmt.Sscanf(tab.Rows[3*i+2][2], "%g", &at15)
		if at15 >= at0 {
			t.Errorf("%s: hot spots did not reduce use rate (%v → %v)", tab.Rows[3*i][0], at0, at15)
		}
	}
}
