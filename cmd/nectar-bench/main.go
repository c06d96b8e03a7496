// nectar-bench regenerates every table and figure of the paper's
// evaluation (§V): Figs. 3-8 plus the topology-cost and
// Byzantine-resilience tables. Results are printed as ASCII plots/tables
// and written as CSV files for external plotting.
//
// All requested experiments run as ONE scheduled plan (DESIGN.md §10):
// trial units from every figure and table share a single bounded worker
// pool (-jobs), with aggregates bit-identical regardless of parallelism.
//
// Usage:
//
//	nectar-bench [flags] <experiment>...
//	nectar-bench -quick all
//	nectar-bench -jobs 8 -no-ascii all
//
// Experiments: fig3 fig4 fig5 fig6 fig7 fig8 fig8-n20 fig8-n50
// topo-cost byz-topo loss churn redteam all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/nectar-repro/nectar/internal/cliutil"
	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/report"
	"github.com/nectar-repro/nectar/internal/sig"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nectar-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nectar-bench", flag.ContinueOnError)
	trials := fs.Int("trials", 0, "trial count override (0 = per-experiment defaults)")
	seed := fs.Int64("seed", 42, "experiment seed")
	quick := fs.Bool("quick", false, "shrink grids and trial counts for a fast pass")
	scheme := fs.String("scheme", "hmac", "signature scheme: "+strings.Join(sig.Names(), "|"))
	out := fs.String("out", "results", "output directory for CSV files")
	jobs := fs.Int("jobs", 0, "parallelism budget shared by all experiments (0 = GOMAXPROCS)")
	noASCII := fs.Bool("no-ascii", false, "suppress terminal plots")
	verbose := fs.Bool("v", false, "print live per-trial progress")
	tracePath := fs.String("trace", "",
		"stream a scheduler event trace (unit start/done) to this .jsonl file (convert with nectar-trace chrome)")
	metricsOut := fs.String("metrics-out", "",
		"write unit counts and the unit latency histogram in Prometheus text format to this file")
	list := fs.Bool("list", false, "print valid experiments and schemes and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the runs) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nectar-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nectar-bench: memprofile:", err)
			}
		}()
	}
	if *list {
		fmt.Printf("experiments: %s\n", strings.Join(experiments(), " "))
		fmt.Printf("schemes:     %s\n", strings.Join(sig.Names(), " "))
		return nil
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d: want ≥ 0 (0 = per-experiment defaults)", *trials)
	}
	targets := fs.Args()
	if len(targets) == 0 {
		return fmt.Errorf("no experiments given; try: nectar-bench -quick all (or -list)")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	opts := report.Options{Trials: *trials, Seed: *seed, Quick: *quick, Scheme: *scheme}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}

	// Expand "all" and de-duplicate while preserving request order (the
	// plan rejects duplicate spec keys).
	var expanded []string
	seen := map[string]bool{}
	for _, tgt := range targets {
		ts := []string{tgt}
		if tgt == "all" {
			ts = allExperiments()
		}
		for _, t := range ts {
			if _, ok := report.ExperimentByID(t); !ok {
				return fmt.Errorf("unknown experiment %q (valid: %s)", t, strings.Join(experiments(), " "))
			}
			if !seen[t] {
				seen[t] = true
				expanded = append(expanded, t)
			}
		}
	}

	cfg := exp.Options{Jobs: *jobs}
	var sink *cliutil.TraceSink
	if *tracePath != "" {
		// Edge binary: wall-clock timestamps are in scope here, and they
		// give the unit lanes real durations.
		t0 := time.Now()
		var terr error
		sink, terr = cliutil.OpenTrace(*tracePath,
			obs.ClockFunc(func() int64 { return time.Since(t0).Microseconds() }))
		if terr != nil {
			return terr
		}
		cfg.Tracer = sink
	}
	var reg *obs.Registry
	count := func(exp.UnitEvent) {}
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		count = unitMetrics(reg)
	}
	cfg.OnUnit = func(ev exp.UnitEvent) {
		count(ev)
		if !*verbose {
			return
		}
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s: FAILED: %v\n", ev.Done, ev.Total, ev.Key, ev.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "  [%d/%d] %s #%d (%v)\n",
			ev.Done, ev.Total, ev.Key, ev.Unit, ev.Elapsed.Round(time.Millisecond))
	}

	start := time.Now()
	rep, runErr := report.RunExperiments(expanded, opts, cfg)
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", *tracePath, sink.Len())
	}
	if reg != nil {
		if err := cliutil.WriteMetrics(*metricsOut, reg); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if rep == nil {
		return runErr
	}

	// Flush every completed output — even after a failure elsewhere in
	// the plan — then report the first error.
	for _, er := range rep.Experiments {
		if er.Output == nil {
			continue
		}
		path := filepath.Join(*out, er.Output.ID()+".csv")
		if err := os.WriteFile(path, []byte(er.Output.CSV()), 0o644); err != nil {
			if runErr == nil {
				runErr = err
			}
			continue
		}
		if !*noASCII {
			fmt.Println(er.Output.ASCII())
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Per-experiment summary: unit-time is each experiment's summed trial
	// compute — its cost independent of how the global scheduler
	// interleaved it with the others.
	fmt.Println()
	for _, er := range rep.Experiments {
		status := "ok"
		if er.Err != nil {
			status = "FAILED: " + er.Err.Error()
		}
		fmt.Printf("%-10s %3d trial units, unit-time %v — %s\n",
			er.ID, er.Units, er.UnitTime.Round(time.Millisecond), status)
	}
	speedup := 0.0
	if rep.Wall > 0 {
		speedup = float64(rep.UnitTime) / float64(rep.Wall)
	}
	fmt.Printf("total: %v wall, %v unit-time (%.1fx parallelism, jobs=%d, %d run) in %v\n",
		rep.Wall.Round(time.Millisecond), rep.UnitTime.Round(time.Millisecond),
		speedup, rep.Jobs, rep.UnitsRun, time.Since(start).Round(time.Millisecond))
	return runErr
}

// unitMetrics returns an exp.Options.OnUnit observer that renders the
// plan's units into reg (DESIGN.md §12): run and failed counts and the
// latency histogram of the units run. A failed unit counts as run and
// failed.
func unitMetrics(reg *obs.Registry) func(exp.UnitEvent) {
	run := reg.Counter("nectar_exp_units_run_total", "Trial units executed.")
	failed := reg.Counter("nectar_exp_units_failed_total", "Trial units that returned an error.")
	seconds := reg.Histogram("nectar_exp_unit_seconds", "Per-unit execution latency.", obs.DefBuckets)
	return func(ev exp.UnitEvent) {
		run.Inc()
		seconds.Observe(ev.Elapsed.Seconds())
		if ev.Err != nil {
			failed.Inc()
		}
	}
}

// allExperiments lists what "all" expands to.
func allExperiments() []string {
	return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"topo-cost", "byz-topo", "loss", "churn", "redteam"}
}

// experiments lists every runnable target for -list (the registry plus
// the "all" alias).
func experiments() []string {
	return append(report.ExperimentIDs(), "all")
}
