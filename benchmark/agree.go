package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func (f *resultFile) row(workload string) *row {
	for _, r := range f.Workloads {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// exactOnSim are the sim_paper numbers that are counts of a
// deterministic run: two result sets of one seed must report them
// identically, whatever the bound says.
var exactOnSim = map[string]bool{
	"msg_per_cs": true, "use_rate": true, "sim_wait_mean_ms": true,
	"acquire_p50_us": true, "acquire_p99_us": true,
}

// agreeFiles compares result sets a and b metric by metric. Bounded
// metrics must lie within their BENCHMARK.json bound of each other
// (relative to a); exact counts must be identical when the seeds match;
// unbounded end-to-end metrics are printed for the record. It returns
// the process exit code: 0 when the sets agree.
func agreeFiles(pathA, pathB, manifestPath string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	raw, errM := os.ReadFile(manifestPath)
	var m manifestFile
	if errM == nil {
		errM = json.Unmarshal(raw, &m)
	}
	if err := errors.Join(errA, errB, errM); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -agree: %v\n", err)
		return 2
	}
	bounds := make(map[string]float64)
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	return agree(a, b, bounds)
}

func agree(a, b *resultFile, bounds map[string]float64) int {
	bad := 0
	fmt.Printf("%-18s %-18s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, w := range workloads {
		ra, rb := a.row(w.name), b.row(w.name)
		if ra == nil || rb == nil {
			fmt.Printf("%-18s missing from a result set\n", w.name)
			bad++
			continue
		}
		for _, r := range []*row{ra, rb} {
			if !r.Valid {
				fmt.Printf("%-18s refused: failed a validity gate: %v\n", w.name, r.Invalid)
				bad++
			}
		}
		if ra.StreamHash != rb.StreamHash && a.Seed == b.Seed {
			fmt.Printf("%-18s refused: one seed, two request streams (%s vs %s)\n", w.name, ra.StreamHash, rb.StreamHash)
			bad++
		}
		if !w.expectShed {
			for _, r := range []*row{ra, rb} {
				if v := r.EndToEnd["failed_share"].Value; v != 0 {
					fmt.Printf("%-18s failed_share %.4g on a workload sized to lose nothing\n", w.name, v)
					bad++
				}
			}
		}
		for _, m := range endToEnd {
			va, okA := ra.EndToEnd[m.name]
			vb, okB := rb.EndToEnd[m.name]
			if !okA && !okB {
				continue // "—" on this workload
			}
			if okA != okB {
				fmt.Printf("%-18s %-18s reported in only one set\n", w.name, m.name)
				bad++
				continue
			}
			ratio := math.NaN()
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			verdict := "info (no bound)"
			bound, bounded := bounds[m.name]
			switch {
			case w.sim() && exactOnSim[m.name] && a.Seed == b.Seed:
				verdict = "identical"
				if va.Value != vb.Value {
					verdict = "DISAGREE: exact count differs"
					bad++
				}
			case bounded && !w.driver:
				// Not a driver workload: its spread was never held to
				// the bounds (README.md, Calibration).
				verdict = "info (bounds not calibrated on this workload)"
			case bounded:
				verdict = fmt.Sprintf("within %.0f%%", 100*bound)
				if va.Value == 0 || math.Abs(ratio-1) > bound {
					verdict = fmt.Sprintf("DISAGREE: beyond %.0f%%", 100*bound)
					bad++
				}
			}
			fmt.Printf("%-18s %-18s %14s %14s %9.4f  %s (base a=%s %s)\n",
				w.name, m.name, formatValue(va.Value), formatValue(vb.Value), ratio, verdict, formatValue(va.Value), m.unit)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d disagreements or refused rows\n", bad)
		return 1
	}
	fmt.Printf("\nthe two result sets agree\n")
	return 0
}
