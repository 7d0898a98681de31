package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricClass says where a metric is reported.
type metricClass int

const (
	// classGated metrics are defined and non-zero on every workload and
	// steady enough to carry a regression bound: they are the
	// end_to_end list of BENCHMARK.json.
	classGated metricClass = iota
	// classInfo metrics are end-to-end numbers a user of the system
	// sees, but only some workloads have them (or they are legitimately
	// zero, or too unsteady on this box to gate, or — cpu_us_per_op on
	// one P — the reciprocal of a gated one wherever they are steady);
	// BENCHMARK.json lists them without a bound.
	classInfo
	// classLayer metrics describe one layer; they come from the traced
	// run, from counters, or from a probe.
	classLayer
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	class  metricClass
	// bound (gated metrics only) is the share of the parent's median by
	// which the metric may worsen before a change counts as a
	// regression; README.md says how each was calibrated.
	bound float64
}

// endToEnd is the ISSUE's list of thirteen, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", classGated, 0.25},
	{"ops_per_s", "1/s", "higher", classGated, 0.25},
	{"goodput_rps", "1/s", "higher", classInfo, 0},
	{"acquire_p50_us", "us", "lower", classGated, 0.25},
	{"acquire_p99_us", "us", "lower", classInfo, 0},
	{"failed_share", "share", "lower", classInfo, 0},
	{"msg_per_cs", "count", "lower", classGated, 0.08},
	{"cpu_us_per_op", "us", "lower", classInfo, 0},
	{"allocs_per_op", "count", "lower", classGated, 0.06},
	{"wire_bytes_per_op", "bytes", "lower", classInfo, 0},
	{"live_heap_mb", "MB", "lower", classInfo, 0},
	{"use_rate", "share", "higher", classInfo, 0},
	{"sim_wait_mean_ms", "ms", "lower", classInfo, 0},
}

func layer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, class: classLayer}
}

// perLayer is every per-layer metric, in print order. The prefix is the
// module the number belongs to.
var perLayer = func() []metricDef {
	d := []metricDef{
		layer("serve.rtt_us_mean", "us", "lower"),
		layer("serve.writes_per_op", "count", "lower"),
		layer("serve.frames_per_flush", "count", "higher"),
		layer("serve.shed_share", "share", "lower"),
		layer("serve.queue_depth_mean", "count", "lower"),
		layer("serve.queue_depth_max", "count", "lower"),
		layer("serve.admit_bound_mean", "count", "higher"),
		layer("serve.pressure_share", "share", "lower"),
	}
	for _, p := range []string{"fifo", "ssf", "edf", "adaptive"} {
		d = append(d, layer("serve.sched_pushpop_ns."+p, "ns", "lower"))
	}
	d = append(d,
		layer("live.queue_us_mean", "us", "lower"),
		layer("live.env_send_ns_mean", "ns", "lower"),
		layer("live.local_acquire_ns", "ns", "lower"),
		layer("live.local_acquire_allocs", "count", "lower"),
		layer("live.cross_share", "share", "lower"),
		layer("live.single_acquire_us_p50", "us", "lower"),
		layer("live.cross_acquire_us_p50", "us", "lower"),
		layer("core.request_ns_mean", "ns", "lower"),
		layer("core.deliver_ns_mean", "ns", "lower"),
		layer("core.release_ns_mean", "ns", "lower"),
		layer("core.busy_us_per_op", "us", "lower"),
		layer("core.delivers_per_op", "count", "lower"),
		layer("core.grant_wait_us_p50", "us", "lower"),
		layer("core.grant_wait_us_p99", "us", "lower"),
	)
	for _, k := range msgKinds {
		d = append(d, layer("core.msgs."+k+"_per_op", "count", "lower"))
	}
	d = append(d,
		layer("transport.transit_us_p50", "us", "lower"),
		layer("transport.transit_us_p99", "us", "lower"),
		layer("transport.unmatched_msgs", "count", "lower"),
		layer("transport.retransmits_per_op", "count", "lower"),
		layer("transport.dups_dropped_per_op", "count", "lower"),
		layer("transport.gaps_per_op", "count", "lower"),
		layer("transport.acks_per_op", "count", "lower"),
		layer("transport.chaos_dropped_per_op", "count", "lower"),
		layer("transport.chaos_dup_per_op", "count", "lower"),
		layer("wire.peer_writes_per_op", "count", "lower"),
		layer("wire.peer_bytes_per_op", "bytes", "lower"),
		layer("wire.peer_frames_per_flush", "count", "higher"),
		layer("wire.stalls", "count", "lower"),
	)
	for _, what := range []string{"encode_ns", "decode_ns", "encode_allocs", "decode_allocs"} {
		unit := "ns"
		if strings.HasSuffix(what, "allocs") {
			unit = "count"
		}
		for _, k := range probeKinds {
			d = append(d, layer("wire."+what+"."+k, unit, "lower"))
		}
	}
	d = append(d,
		layer("wire.coalesce_ns_per_frame", "ns", "lower"),
		layer("wire.framereader_ns_per_frame", "ns", "lower"),
		layer("resource.split_ns", "ns", "lower"),
		layer("sim.events_per_op", "count", "lower"),
		layer("sim.events_per_s", "1/s", "higher"),
		layer("sim.allocs_per_event", "count", "lower"),
		layer("driver.ungranted", "count", "lower"),
		layer("workload.next_ns", "ns", "lower"),
		layer("runtime.gc_cycles", "count", "lower"),
		layer("runtime.gc_pause_ms", "ms", "lower"),
		layer("runtime.alloc_bytes_per_op", "bytes", "lower"),
		layer("runtime.goroutines_max", "count", "lower"),
		layer("loadgen.offered_rps", "1/s", "higher"),
		layer("loadgen.late_us_p99", "us", "lower"),
		layer("loadgen.dropped", "count", "lower"),
		layer("loadgen.samples", "count", "higher"),
		layer("trace.overhead_share", "share", "lower"),
	)
	return d
}()

// msgKinds are the protocol message kinds counted per op.
var msgKinds = []string{"LASS.Request", "LASS.Response", "LASS.HB", "LASS.Lease", "LASS.Regen"}

// gatedMetrics is the end_to_end list of BENCHMARK.json; ungatedMetrics
// its per_layer list (the unbounded end-to-end numbers first).
func gatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.class == classGated {
			out = append(out, m)
		}
	}
	return out
}

func ungatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.class == classInfo {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

// manifestFile is the root BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end_to_end only
}

// contractSeconds is the window the driver measures per run: fifty
// slices, which with warm-up, set-up and teardown keeps a run near 30 s
// and the driver's 4 + 22 × 4 runs near 46 of its 57 minutes.
const contractSeconds = 25

// manifest builds BENCHMARK.json from the catalogue, so the two cannot
// drift (-manifest prints it; a test compares it with the file).
func manifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: contractSeconds,
	}
	for _, w := range workloads {
		if w.driver {
			m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
		}
	}
	for _, d := range gatedMetrics() {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range ungatedMetrics() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return m
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is everything measured for one workload.
type row struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	StreamHash string                 `json:"stream_hash"`
	Seconds    int                    `json:"window_s"`
	Procs      int                    `json:"gomaxprocs"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Samples    int64                  `json:"latency_samples"`
	Valid      bool                   `json:"valid"`
	Incorrect  bool                   `json:"incorrect,omitempty"`
	Invalid    []string               `json:"invalid_reasons,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`
	// Slices holds, slice by slice, the values behind the times and
	// rates reported as a quiet decile: a neighbour on the host shows
	// here as a stretch of slow slices.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

func (r *row) set(name string, v float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	mv := metricValue{Value: v, Unit: def.unit}
	if def.class == classLayer {
		if r.PerLayer == nil {
			r.PerLayer = make(map[string]metricValue)
		}
		r.PerLayer[name] = mv
		return
	}
	r.EndToEnd[name] = mv
}

// series reports a time or rate as the quiet decile (est) of its
// per-slice values and keeps the values.
func (r *row) series(name string, perSlice []float64, est func([]float64) float64) {
	if r.Slices == nil {
		r.Slices = make(map[string][]float64)
	}
	r.Slices[name] = perSlice
	r.set(name, est(perSlice))
}

// invalid marks the row as not to be trusted as a measurement: the
// generator ran late, a tail is too thin, the deployment stalled.
func (r *row) invalid(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// incorrect marks the row invalid because the program's outputs were
// wrong — a double grant, a lost message, a request that failed where
// none may — which is what the contract's "correct" reports.
func (r *row) incorrect(format string, args ...any) {
	r.Incorrect = true
	r.invalid(format, args...)
}

// sliceDelta is the change of every counter across one slice, plus what
// the load generator logged in it.
type sliceDelta struct {
	seconds float64
	granted float64
	sys     sysCounters // deltas; gauges unset
	proc    procCounters
}

func subWire(a, b wireCounters) wireCounters {
	return wireCounters{a.Writes - b.Writes, a.Flushes - b.Flushes, a.Frames - b.Frames, a.Bytes - b.Bytes, a.Stalls - b.Stalls}
}

func (res *loadResult) deltas() []sliceDelta {
	out := make([]sliceDelta, res.win.slices)
	for k := range out {
		a, b := res.snaps[k], res.snaps[k+1]
		d := &out[k]
		d.seconds = b.at.Sub(a.at).Seconds()
		for _, l := range res.logs {
			d.granted += float64(l.slices[k].granted)
		}
		d.sys.Msgs = make(map[string]int64)
		for kind, v := range b.sys.Msgs {
			d.sys.Msgs[kind] = v - a.sys.Msgs[kind]
		}
		d.sys.Peer = subWire(b.sys.Peer, a.sys.Peer)
		d.sys.Port = subWire(b.sys.Port, a.sys.Port)
		d.sys.Retransmits = b.sys.Retransmits - a.sys.Retransmits
		d.sys.DupsDropped = b.sys.DupsDropped - a.sys.DupsDropped
		d.sys.Gaps = b.sys.Gaps - a.sys.Gaps
		d.sys.AcksSent = b.sys.AcksSent - a.sys.AcksSent
		d.sys.ChaosDropped = b.sys.ChaosDropped - a.sys.ChaosDropped
		d.sys.ChaosDup = b.sys.ChaosDup - a.sys.ChaosDup
		d.proc = b.proc.sub(a.proc)
	}
	return out
}

// grantRates is grants per wall second, slice by slice; the reported
// rate is their quiet decile.
func grantRates(ds []sliceDelta) []float64 {
	var rate []float64
	for k := range ds {
		rate = append(rate, ds[k].granted/ds[k].seconds)
	}
	return rate
}

// perOpSlices is f(slice) per granted request, slice by slice.
func perOpSlices(ds []sliceDelta, f func(*sliceDelta) float64) []float64 {
	var v []float64
	for i := range ds {
		if ds[i].granted > 0 {
			v = append(v, f(&ds[i])/ds[i].granted)
		}
	}
	return v
}

// perOp is a count per granted request, median slice.
func perOp(ds []sliceDelta, f func(*sliceDelta) float64) float64 {
	return median(perOpSlices(ds, f))
}

func totalMsgs(m map[string]int64) float64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return float64(n)
}

// latencies gathers the window's request→grant times, sorted: one
// slice of samples per window slice, and all of them together.
func (res *loadResult) latencies() (perSlice [][]int64, all []int64) {
	perSlice = make([][]int64, res.win.slices)
	for _, l := range res.logs {
		for k := range l.slices {
			perSlice[k] = append(perSlice[k], l.slices[k].lat...)
		}
	}
	for k := range perSlice {
		slices.Sort(perSlice[k])
		all = append(all, perSlice[k]...)
	}
	slices.Sort(all)
	return perSlice, all
}

// slicePercentiles is each slice's p-quantile in microseconds; an error
// when a slice is too thin to resolve the tail.
func slicePercentiles(perSlice [][]int64, p float64) ([]float64, error) {
	var out []float64
	for k := range perSlice {
		v, err := percentile(perSlice[k], p)
		if err != nil {
			return nil, err
		}
		out = append(out, v/1e3)
	}
	return out, nil
}

// endToEndRow derives the end-to-end metrics (and the load-generator
// and runtime rows that qualify them) of a live workload from an
// untraced run.
func endToEndRow(r *row, w *workloadSpec, res *loadResult) {
	ds := res.deltas()
	var granted, shed, timedOut, errs, offered, dropped int64
	for _, l := range res.logs {
		for k := range l.slices {
			s := &l.slices[k]
			granted, shed = granted+s.granted, shed+s.shed
			timedOut, errs = timedOut+s.timedOut, errs+s.errs
		}
	}
	for k := range res.offered {
		offered, dropped = offered+res.offered[k], dropped+res.dropped[k]
	}
	r.Attempted = granted + shed + timedOut + errs
	if w.open() {
		r.Attempted = offered
	}
	refused := shed + timedOut + dropped
	r.Failed = errs
	if !w.expectShed {
		r.Failed += refused
	}

	var goodRate, offeredRate []float64
	for k := range ds {
		var g int64
		for _, l := range res.logs {
			g += l.slices[k].good
		}
		goodRate = append(goodRate, float64(g)/ds[k].seconds)
		offeredRate = append(offeredRate, float64(res.offered[k])/ds[k].seconds)
	}
	r.series("ops_per_s", grantRates(ds), quietHigh)
	if w.open() {
		r.set("goodput_rps", quietHigh(goodRate))
	}
	perSlice, all := res.latencies()
	r.Samples = int64(len(all))
	for _, q := range []struct {
		name string
		p    float64
	}{{"acquire_p50_us", 0.50}, {"acquire_p99_us", 0.99}} {
		if v, err := slicePercentiles(perSlice, q.p); err == nil {
			r.series(q.name, v, quietLow)
		} else if v, err := percentile(all, q.p); err == nil { // slices too thin for this tail
			r.set(q.name, v/1e3)
		} else {
			r.invalid("%s: %v", q.name, err)
		}
	}
	if r.Attempted > 0 {
		r.set("failed_share", float64(refused+errs)/float64(r.Attempted))
	}
	r.set("msg_per_cs", perOp(ds, func(d *sliceDelta) float64 { return totalMsgs(d.sys.Msgs) }))
	r.series("cpu_us_per_op", perOpSlices(ds, func(d *sliceDelta) float64 { return d.proc.CPUUS }), quietLow)
	r.set("allocs_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.proc.Mallocs) }))
	if w.wire() {
		r.set("wire_bytes_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Peer.Bytes + d.sys.Port.Bytes) }))
	}
	r.set("live_heap_mb", res.heapMB)

	first, last := res.snaps[0].proc, res.snaps[len(res.snaps)-1].proc
	r.set("runtime.gc_cycles", float64(last.GCCycles-first.GCCycles))
	r.set("runtime.gc_pause_ms", float64(last.GCPauseNS-first.GCPauseNS)/1e6)
	r.set("runtime.alloc_bytes_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.proc.AllocBytes) }))
	r.set("runtime.goroutines_max", float64(res.gauges.goroutinesMax))
	r.set("loadgen.samples", float64(r.Samples))
	if w.open() {
		r.set("loadgen.offered_rps", median(offeredRate))
		r.set("loadgen.dropped", float64(dropped))
		late := append([]int64(nil), res.late...)
		slices.Sort(late)
		if v, err := percentile(late, 0.99); err != nil {
			r.invalid("loadgen.late_us_p99: %v", err)
		} else {
			r.set("loadgen.late_us_p99", v/1e3)
			if !w.expectShed && v > lateGateNS {
				r.invalid("load generator ran late: p99 lateness %.0f us exceeds %d us", v/1e3, lateGateNS/1000)
			}
		}
	}
	if res.doubles > 0 {
		r.incorrect("owner table saw %d double grants", res.doubles)
	}
	var perSliceGrants []int64
	var dry, longestDry float64 // seconds without a grant, current and longest stretch
	for k := range ds {
		perSliceGrants = append(perSliceGrants, int64(ds[k].granted))
		if ds[k].granted == 0 {
			dry += ds[k].seconds
			longestDry = max(longestDry, dry)
		} else {
			dry = 0
		}
	}
	if longestDry >= stallGate.Seconds() {
		r.invalid("no grant at all for %.1f s (grants per slice: %v): the deployment stalled", longestDry, perSliceGrants)
	}
	if errs > 0 {
		r.incorrect("%d requests ended in an unexpected error", errs)
	}
	if !w.expectShed && refused > 0 {
		r.incorrect("%d requests were refused or timed out on a workload sized to lose none", refused)
	}
}

// stallGate: a window that saw no grant for this long measured a stalled
// deployment, not the workload.
const stallGate = 2 * time.Second

// lateGateNS: an open-loop row below the knee is valid only while the
// generator kept its schedule to within a millisecond at p99; later
// than that and the row measures the generator.
const lateGateNS = 1_000_000

// layerRow derives the per-layer metrics of a live workload from a
// traced run.
func layerRow(r *row, w *workloadSpec, res *loadResult, tr *tracer) {
	ds := res.deltas()
	var granted float64
	var shed, attempted int64
	for k := range ds {
		granted += ds[k].granted
	}
	for _, l := range res.logs {
		for k := range l.slices {
			s := &l.slices[k]
			shed += s.shed
			attempted += s.granted + s.shed + s.timedOut + s.errs
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	client, backend, wait := tr.sumNS(spanClientAcquire), tr.sumNS(spanBackendAcquire), tr.sumNS(spanGrantWait)
	upper, upperN := client, tr.count(spanClientAcquire)
	if w.clientPort() {
		r.set("serve.rtt_us_mean", (tr.meanNS(spanClientAcquire)-tr.meanNS(spanBackendAcquire))/1e3)
		r.set("serve.writes_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Port.Writes) }))
		var frames, flushes float64
		for k := range ds {
			frames, flushes = frames+float64(ds[k].sys.Port.Frames), flushes+float64(ds[k].sys.Port.Flushes)
		}
		r.set("serve.frames_per_flush", ratio(frames, flushes))
		r.set("serve.shed_share", ratio(float64(shed), float64(attempted)))
		g := res.gauges
		r.set("serve.queue_depth_mean", ratio(g.depthSum, float64(g.samples)))
		r.set("serve.queue_depth_max", float64(g.depthMax))
		r.set("serve.admit_bound_mean", ratio(g.boundSum, float64(g.boundSamples)))
		r.set("serve.pressure_share", ratio(float64(g.pressure), float64(g.pressureOf)))
		upper, upperN = backend, tr.count(spanBackendAcquire)
	}
	// Time a request spent in the runtime above the protocol: admission
	// queue, mailbox hops, cross-shard composition. Sums, not means,
	// because a cross-shard acquire has one grant_wait per shard.
	r.set("live.queue_us_mean", ratio(upper-wait, upperN)/1e3)
	r.set("live.env_send_ns_mean", tr.meanNS(spanEnvSend))
	if w.shards > 1 {
		var total, cross int64
		for _, g := range res.gen {
			total, cross = total+g.total, cross+g.cross
		}
		r.set("live.cross_share", ratio(float64(cross), float64(total)))
		var single, crossLat []int64
		for _, l := range res.logs {
			single, crossLat = append(single, l.single...), append(crossLat, l.cross...)
		}
		slices.Sort(single)
		slices.Sort(crossLat)
		if v, err := percentile(single, 0.5); err == nil {
			r.set("live.single_acquire_us_p50", v/1e3)
		}
		if v, err := percentile(crossLat, 0.5); err == nil {
			r.set("live.cross_acquire_us_p50", v/1e3)
		}
	}
	coreRows(r, tr, granted)
	r.set("core.grant_wait_us_p50", tr.pctUS(spanGrantWait, 0.50))
	r.set("core.grant_wait_us_p99", tr.pctUS(spanGrantWait, 0.99))
	for _, k := range msgKinds {
		k := k
		r.set("core.msgs."+k+"_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Msgs[k]) }))
	}

	r.set("transport.transit_us_p50", tr.pctUS(spanLinkTransit, 0.50))
	r.set("transport.transit_us_p99", tr.pctUS(spanLinkTransit, 0.99))
	unmatched := tr.unmatched.Load() + tr.inFlight()
	r.set("transport.unmatched_msgs", float64(unmatched))
	if unmatched != 0 {
		r.incorrect("link matcher left %d messages unmatched (FIFO per link broken, or messages lost)", unmatched)
	}
	r.set("transport.retransmits_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Retransmits) }))
	r.set("transport.dups_dropped_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.DupsDropped) }))
	r.set("transport.gaps_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Gaps) }))
	r.set("transport.acks_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.AcksSent) }))
	r.set("transport.chaos_dropped_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.ChaosDropped) }))
	r.set("transport.chaos_dup_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.ChaosDup) }))
	if w.wire() {
		r.set("wire.peer_writes_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Peer.Writes) }))
		r.set("wire.peer_bytes_per_op", perOp(ds, func(d *sliceDelta) float64 { return float64(d.sys.Peer.Bytes) }))
		var frames, flushes, stalls float64
		for k := range ds {
			frames, flushes = frames+float64(ds[k].sys.Peer.Frames), flushes+float64(ds[k].sys.Peer.Flushes)
			stalls += float64(ds[k].sys.Peer.Stalls + ds[k].sys.Port.Stalls)
		}
		r.set("wire.peer_frames_per_flush", ratio(frames, flushes))
		r.set("wire.stalls", stalls)
	}
}

// coreRows are the busy-time rows of the protocol state machine, shared
// by the live workloads and the simulator. A node's self time is its
// activations minus the Env.Send calls made inside them.
func coreRows(r *row, tr *tracer, granted float64) {
	r.set("core.request_ns_mean", tr.meanNS(spanNodeRequest))
	r.set("core.deliver_ns_mean", tr.meanNS(spanNodeDeliver))
	r.set("core.release_ns_mean", tr.meanNS(spanNodeRelease))
	if granted > 0 {
		busy := tr.sumNS(spanNodeRequest) + tr.sumNS(spanNodeDeliver) + tr.sumNS(spanNodeRelease) +
			tr.sumNS(spanNodeTick) - tr.sumNS(spanEnvSend)
		r.set("core.busy_us_per_op", busy/granted/1e3)
		r.set("core.delivers_per_op", tr.count(spanNodeDeliver)/granted)
	}
}

// ---- printing ----

func formatValue(v float64) string {
	switch a := v; {
	case a == 0:
		return "0"
	case a < 0:
		return fmt.Sprintf("%.4g", v)
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printRow writes one workload's metrics by name and unit; "—" marks an
// end-to-end metric the workload does not have.
func printRow(out *strings.Builder, r *row) {
	state := "valid"
	if !r.Valid {
		state = "INVALID: " + strings.Join(r.Invalid, "; ")
	}
	fmt.Fprintf(out, "\n== %s  (%d s window, attempted %d, failed %d, latency samples %d, %s)\n",
		r.Workload, r.Seconds, r.Attempted, r.Failed, r.Samples, state)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.name]; ok {
			fmt.Fprintf(out, "  %-22s %14s %-6s [%s is better]\n", m.name, formatValue(v.Value), m.unit, m.better)
		} else {
			fmt.Fprintf(out, "  %-22s %14s\n", m.name, "—")
		}
	}
	if len(r.PerLayer) == 0 {
		return
	}
	fmt.Fprintf(out, "  -- per layer --\n")
	names := make([]string, 0, len(r.PerLayer))
	for n := range r.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.PerLayer[n]
		fmt.Fprintf(out, "  %-36s %14s %s\n", n, formatValue(v.Value), v.Unit)
	}
}
