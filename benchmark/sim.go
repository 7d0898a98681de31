package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// One iteration of the window is simSeeds simulated runs of simHorizonNS
// simulated nanoseconds each, under seeds derived from the run's, merged
// into one result. The 2 s of the Quick scale grants ~360 critical
// sections, too few for two seeds to agree: the median wait moved 9 %
// between seeds and the counts 4–5 %; 8 s halved that, and the mean of
// four such runs halves it again. (One longer run does not: the load
// point starts with every node asking at once and the waits shrink for
// minutes, so at 32 s the median wait moved 8–11 % between seeds and at
// 128 s 14 %.) A set-up run is long enough for the first grants and
// short next to an iteration.
const (
	simSeeds                = 4
	simHorizonNS      int64 = 8_000_000_000
	simSetupHorizonNS int64 = 50_000_000
)

// simRound runs one iteration: counts are summed over its runs, the use
// rate and the waiting times averaged.
func simRound(w *workloadSpec, seed int64, tr *tracer) (simResult, error) {
	sum := simResult{Msgs: make(map[string]int64)}
	for j := 0; j < simSeeds; j++ {
		res, err := runSim(w, substreamSeed(seed, w.name, "sim", j), simHorizonNS, tr)
		if err != nil {
			return sum, err
		}
		sum.Grants += res.Grants
		for k, v := range res.Msgs {
			sum.Msgs[k] += v
		}
		sum.TotalMsgs += res.TotalMsgs
		sum.Events += res.Events
		sum.Ungranted += res.Ungranted
		sum.UseRate += res.UseRate / simSeeds
		sum.WaitMeanMS += res.WaitMeanMS / simSeeds
		sum.WaitP50MS += res.WaitP50MS / simSeeds
		sum.WaitP99MS += res.WaitP99MS / simSeeds
	}
	return sum, nil
}

// simSlice is one slice of the simulator window.
type simSlice struct {
	seconds float64
	iters   float64
	proc    procCounters // deltas
}

// simWindow repeats the simulated run for slices×slice of wall time and
// checks that every iteration reports the same counts as the first: the
// runtime is deterministic, so a difference is a defect. A slice ends
// with the first iteration to finish past its boundary, so an iteration
// longer than a slice makes fewer, longer slices, not a longer window.
func simWindow(w *workloadSpec, seed int64, slice time.Duration, slices int, tr *tracer) (first simResult, out []simSlice, err error) {
	if _, err = simRound(w, seed, nil); err != nil { // warm caches and the allocator
		return first, nil, err
	}
	if tr != nil {
		tr.open.Store(true)
		defer tr.open.Store(false)
	}
	have := false
	begin := time.Now()
	for k := 0; k < slices; k = int(time.Since(begin) / slice) {
		start, before := time.Now(), readProc()
		iters := 0
		for time.Since(begin) < time.Duration(k+1)*slice {
			res, err := simRound(w, seed, tr)
			if err != nil {
				return first, nil, err
			}
			if !have {
				first, have = res, true
			} else if !reflect.DeepEqual(res, first) {
				return first, nil, fmt.Errorf("simulator iterations disagree under one seed: %+v then %+v", first, res)
			}
			iters++
		}
		after := readProc()
		out = append(out, simSlice{
			seconds: time.Since(start).Seconds(),
			iters:   float64(iters),
			proc:    after.sub(before),
		})
	}
	return first, out, nil
}

// simWorkload fills r for sim_paper. One op is one granted critical
// section of the simulated run; times named acquire_* and sim_wait_*
// are simulated time, everything per wall second is simulator speed.
func simWorkload(r *row, w *workloadSpec, opt options, slice time.Duration, slices int) error {
	var setups []float64
	for i, start := 0, time.Now(); moreSetups(i, start); i++ {
		t0 := time.Now()
		if _, err := runSim(w, opt.seed, simSetupHorizonNS, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	first, sl, err := simWindow(w, opt.seed, slice, slices, nil)
	if err != nil {
		r.incorrect("%v", err)
		return nil
	}
	if first.Grants == 0 {
		return fmt.Errorf("simulated run granted nothing")
	}
	grants := float64(first.Grants)
	each := func(f func(s *simSlice) float64) []float64 {
		var v []float64
		for i := range sl {
			v = append(v, f(&sl[i]))
		}
		return v
	}
	var iters float64
	var cycles uint32
	var pause uint64
	for i := range sl {
		iters += sl[i].iters
		cycles += sl[i].proc.GCCycles
		pause += sl[i].proc.GCPauseNS
	}
	r.Attempted = int64(iters * grants)
	r.Samples = int64(first.Grants)
	r.series("ops_per_s", each(func(s *simSlice) float64 { return s.iters * grants / s.seconds }), quietHigh)
	opsPerS := r.EndToEnd["ops_per_s"].Value
	r.set("acquire_p50_us", first.WaitP50MS*1e3)
	r.set("acquire_p99_us", first.WaitP99MS*1e3)
	r.set("failed_share", 0)
	r.set("msg_per_cs", float64(first.TotalMsgs)/grants)
	r.series("cpu_us_per_op", each(func(s *simSlice) float64 { return s.proc.CPUUS / (s.iters * grants) }), quietLow)
	r.set("allocs_per_op", median(each(func(s *simSlice) float64 { return float64(s.proc.Mallocs) / (s.iters * grants) })))
	r.set("use_rate", first.UseRate)
	r.set("sim_wait_mean_ms", first.WaitMeanMS)
	r.set("live_heap_mb", liveHeapMB())

	events := float64(first.Events)
	r.set("sim.events_per_op", events/grants)
	r.set("sim.events_per_s", quietHigh(each(func(s *simSlice) float64 { return s.iters * events / s.seconds })))
	r.set("sim.allocs_per_event", median(each(func(s *simSlice) float64 { return float64(s.proc.Mallocs) / (s.iters * events) })))
	r.set("driver.ungranted", float64(first.Ungranted))
	r.set("runtime.gc_cycles", float64(cycles))
	r.set("runtime.gc_pause_ms", float64(pause)/1e6)
	r.set("runtime.alloc_bytes_per_op", median(each(func(s *simSlice) float64 { return float64(s.proc.AllocBytes) / (s.iters * grants) })))
	r.set("runtime.goroutines_max", float64(runtime.NumGoroutine()))
	r.set("loadgen.samples", float64(first.Grants))
	for _, k := range msgKinds {
		r.set("core.msgs."+k+"_per_op", float64(first.Msgs[k])/grants)
	}
	if !opt.trace {
		return nil
	}

	// Traced run: the same factory seam, under the simulator. Link
	// transit is not matched: the send and the delivery are instants of
	// a virtual-time queue, not of a wire.
	tr := newTracer(w.nodes, []int{w.resources}, w.resources, func(r int) (int, int) { return 0, r }, false)
	tfirst, tsl, err := simWindow(w, opt.seed, slice, slices, tr)
	if err != nil {
		r.incorrect("traced: %v", err)
		return nil
	}
	if !reflect.DeepEqual(tfirst, first) {
		r.incorrect("the seam wrappers changed the simulated run: %+v untraced, %+v traced", first, tfirst)
	}
	var titers float64
	var trate []float64
	for i := range tsl {
		titers += tsl[i].iters
		trate = append(trate, tsl[i].iters*grants/tsl[i].seconds)
	}
	coreRows(r, tr, titers*grants)
	r.set("trace.overhead_share", 1-quietHigh(trate)/opsPerS)
	r.TraceFile, err = tr.write(outDir, w.name, opt.seed)
	return err
}
