package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		if w.sim() {
			continue // the simulator draws its own workload from the seed
		}
		a, b, c := streamHash(w, 1), streamHash(w, 1), streamHash(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x then %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generate the same request stream (%x)", w.name, a)
		}
	}
}

func TestGeneratorRespectsShape(t *testing.T) {
	for _, w := range workloads {
		if w.sim() {
			continue
		}
		g := newReqGen(w, 7, 0)
		for i := 0; i < 2000; i++ {
			rs := g.next()
			if len(rs) < 1 || len(rs) > w.phi {
				t.Fatalf("%s: request of %d resources, phi is %d", w.name, len(rs), w.phi)
			}
			for j, r := range rs {
				if r < 0 || r >= w.resources || (j > 0 && rs[j-1] >= r) {
					t.Fatalf("%s: request %v is not a sorted set over [0,%d)", w.name, rs, w.resources)
				}
			}
		}
		if w.shards > 1 {
			if share := float64(g.cross) / float64(g.total); share < w.crossShare-0.05 || share > w.crossShare+0.05 {
				t.Errorf("%s: cross-shard share %.3f, want about %.2f", w.name, share, w.crossShare)
			}
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was reported")
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(samples(100), 0.5); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of nothing was reported")
	}
}

// TestQuietDecileIgnoresADisturbedHalf: a neighbour that slows 60 % of
// a run's slices by half must not move the reported time or rate.
func TestQuietDecileIgnoresADisturbedHalf(t *testing.T) {
	var lat, rate []float64
	for i := 0; i < 50; i++ {
		slow := i%5 < 3
		l, r := 100+float64(i%2), 1000-float64(i%2)
		if slow {
			l, r = 2*l, r/2
		}
		lat, rate = append(lat, l), append(rate, r)
	}
	if v := quietLow(lat); v < 100 || v > 101 {
		t.Errorf("quiet decile of the latencies = %v, want the undisturbed 100–101", v)
	}
	if v := quietHigh(rate); v < 999 || v > 1000 {
		t.Errorf("quiet decile of the rates = %v, want the undisturbed 999–1000", v)
	}
	if v := median(lat); v < 200 {
		t.Errorf("median of the latencies = %v: the test's premise is that it lands on the disturbed side", v)
	}
	if v := quantile([]float64{4, 1, 3, 2}, 0.5); v != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", v)
	}
}

func TestOwnerTableCatchesDoubleGrant(t *testing.T) {
	o := newOwnerTable(8)
	o.claim([]int{1, 2}, 1)
	o.claim([]int{3}, 2)
	if n := o.doubleGrants.Load(); n != 0 {
		t.Fatalf("disjoint grants counted as %d double grants", n)
	}
	o.claim([]int{2, 4}, 3) // planted: resource 2 is still held by 1
	if n := o.doubleGrants.Load(); n != 1 {
		t.Fatalf("planted double grant counted %d times", n)
	}
	o.free([]int{2, 4}, 3) // must not free 1's claim on resource 2
	o.claim([]int{2}, 4)
	if n := o.doubleGrants.Load(); n != 2 {
		t.Fatalf("the intruder's release freed the rightful owner's claim (%d double grants)", n)
	}

	// The same through the row: a run that saw one is invalid.
	w := findWorkload("mem_closed")
	res := &loadResult{win: window{slices: 1, slice: time.Second}, snaps: make([]snapshot, 2), doubles: 1,
		offered: make([]int64, 1), dropped: make([]int64, 1)}
	r := newRow(w, options{seed: 1}, 1)
	endToEndRow(r, w, res)
	if r.Valid || !strings.Contains(strings.Join(r.Invalid, "\n"), "double grant") {
		t.Errorf("a run with a double grant was not refused for it: %v", r.Invalid)
	}
}

func TestLinkMatcherPairsInterleavedLinks(t *testing.T) {
	tr := newTracer(3, []int{4}, 4, func(r int) (int, int) { return 0, r }, true)
	tr.open.Store(true)
	// Three links, sends interleaved; deliveries arrive in another
	// interleaving but FIFO per link.
	tr.sent(0, 0, 1, 100)
	tr.sent(0, 2, 1, 110)
	tr.sent(0, 0, 1, 120)
	tr.sent(0, 0, 2, 130)
	tr.sent(0, 2, 1, 140)
	tr.delivered(0, 2, 1, 210) // 100
	tr.delivered(0, 0, 2, 330) // 200
	tr.delivered(0, 0, 1, 400) // 300
	tr.delivered(0, 2, 1, 540) // 400
	tr.delivered(0, 0, 1, 620) // 500
	if got := tr.count(spanLinkTransit); got != 5 {
		t.Fatalf("%v transits recorded, want 5", got)
	}
	if got, want := tr.sumNS(spanLinkTransit), float64(100+200+300+400+500); got != want {
		t.Errorf("transit sum %v, want %v (sends paired across links?)", got, want)
	}
	links := map[[2]int][]int64{}
	for i := range tr.links {
		if d := tr.links[i].durs; len(d) > 0 {
			links[[2]int{i / 3 % 3, i % 3}] = d
		}
	}
	want := map[[2]int][]int64{{0, 1}: {300, 500}, {2, 1}: {100, 400}, {0, 2}: {200}}
	for k, v := range want {
		if got := links[k]; len(got) != len(v) || got[0] != v[0] || got[len(v)-1] != v[len(v)-1] {
			t.Errorf("link %v transits %v, want %v", k, got, v)
		}
	}
	if tr.unmatched.Load() != 0 || tr.inFlight() != 0 {
		t.Fatalf("unmatched %d, in flight %d after a clean exchange", tr.unmatched.Load(), tr.inFlight())
	}
	tr.delivered(0, 1, 0, 700) // a delivery nobody sent
	tr.sent(0, 1, 2, 710)      // a send nobody receives
	if tr.unmatched.Load() != 1 || tr.inFlight() != 1 {
		t.Errorf("unmatched %d, in flight %d; want 1 and 1", tr.unmatched.Load(), tr.inFlight())
	}
}

// TestOpenLoopTimesFromDueInstant drives the open loop against a fake
// backend that serves one request at a time and stalls once. A closed
// loop would see one slow request; the open loop keeps offering on
// schedule, so every request due during the stall must report the wait
// it was made to suffer.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const stall = 300 * time.Millisecond
	w := &workloadSpec{
		name: "fake_open", resources: 8, phi: 1,
		openRPS: 1000, timeout: 5 * time.Second, slo: 50 * time.Millisecond, maxInFlight: 8192,
	}
	var server sync.Mutex
	var served atomic.Int64
	door := func(ctx context.Context, rs []int) (func(), outcome, error) {
		server.Lock()
		defer server.Unlock()
		if served.Add(1) == 200 {
			time.Sleep(stall)
		}
		return func() {}, outGranted, nil
	}
	d := &deployment{w: w, doors: []acquireFunc{door}}
	res := &loadResult{
		win:     window{start: time.Now(), slice: time.Second, slices: 1},
		offered: make([]int64, 1), dropped: make([]int64, 1),
	}
	openLoop(context.Background(), d, 1, 0, res, newOwnerTable(w.resources), nil)
	var slow, total int
	for _, l := range res.logs {
		for _, lat := range l.slices[0].lat {
			total++
			if time.Duration(lat) > stall/3 {
				slow++
			}
		}
	}
	// About stall×rate requests fell due during the stall; two thirds of
	// them waited more than a third of it.
	if want := int(stall.Seconds() * w.openRPS / 2); slow < want {
		t.Errorf("%d of %d requests report the stall; want at least %d (timed from send, not from due?)", slow, total, want)
	}
	if slow > total/2 {
		t.Errorf("%d of %d requests slow: the stall should not outlive itself", slow, total)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesCatalogue keeps the root BENCHMARK.json and the
// catalogue in this package from drifting apart.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	want, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want)+"\n" {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	m := manifest()
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s has malformed unit %q", name, unit)
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, e := range m.PerLayer {
		check(e.Name, e.Unit)
	}
	if n := len(m.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", n)
	}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or a why of %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmokeEmitsEveryMetric runs all seven workloads, traced, at smoke
// length and checks that every declared metric name comes out of it.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets and runs every workload twice for 2 s")
	}
	outDir = t.TempDir()
	opt := options{seed: 1, trace: true, smoke: true}
	emitted := map[string]bool{}
	for _, w := range workloads {
		r, err := runWorkload(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		switch {
		case r.Valid:
		case w.open():
			// A fixed offered rate is past the knee of a slow host (or a
			// -race build); that is the host's verdict, not a defect.
			t.Logf("%s: invalid on this host: %v", w.name, r.Invalid)
		default:
			t.Errorf("%s: invalid: %v", w.name, r.Invalid)
		}
		for _, m := range gatedMetrics() {
			if w.open() && !r.Valid {
				break
			}
			if v, ok := r.EndToEnd[m.name]; !ok || v.Value <= 0 {
				t.Errorf("%s: gated metric %s = %v, present %v; must be positive on every workload", w.name, m.name, v.Value, ok)
			}
		}
		for n := range r.EndToEnd {
			emitted[n] = true
		}
		for n := range r.PerLayer {
			emitted[n] = true
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		if w.name == "mem_closed" {
			for n, v := range r.PerLayer {
				if (strings.HasPrefix(n, "wire.") || strings.HasPrefix(n, "serve.")) && v.Value != 0 {
					t.Errorf("mem_closed bypasses serve and wire, yet %s = %v", n, v.Value)
				}
			}
		}
	}
	probes, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	for n := range probes {
		if _, ok := findMetric(n); !ok {
			t.Errorf("probe %s is not in the catalogue", n)
		}
		emitted[n] = true
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !emitted[m.name] {
			t.Errorf("declared metric %s was emitted by no workload and no probe", m.name)
		}
	}
}
