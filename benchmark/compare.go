package main

import (
	"fmt"
	"io"
	"math"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// sameSeedBound tightens a metric's bound when both files were measured
// with one seed: the inputs are then identical, so exact metrics must be
// too, and allocation may move by 1 %. BENCHMARK.json's own bounds are
// wider because they also have to hold across seeds.
func sameSeedBound(name string, bound float64) float64 {
	switch {
	case exactMetrics[name]:
		return 0
	case name == "alloc_mb_per_op" || name == "allocs_per_op":
		return 0.01
	}
	return bound
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, the bound, and PASS or FAIL.
// It is the check that two sets of runs agree, and the table a later change
// shows against its parent.
func compareFiles(w io.Writer, benchmarkPath, aPath, bPath string) error {
	var bf benchmarkFile
	var a, b result
	for path, v := range map[string]any{benchmarkPath: &bf, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "a = %s (seed %d), b = %s (seed %d)\n", aPath, a.Seed, bPath, b.Seed)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	fails := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		for _, def := range bf.EndToEnd {
			ma, okA := wa.EndToEnd[def.Name]
			mb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			bound := def.Bound
			if sameSeed {
				bound = sameSeedBound(def.Name, bound)
			}
			worse := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if def.Better == "higher" && worse != 0 {
				worse = -worse
			}
			verdict := "PASS"
			// An exact metric has no better side: any difference is one.
			if worse > bound || (bound == 0 && ma.Value != mb.Value) {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
				wa.Name, def.Name, ma.Value, mb.Value, 100*worse, 100*bound, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("%d metrics differ by more than their bound", fails)
	}
	return nil
}
