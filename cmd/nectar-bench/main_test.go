package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/obs"
)

func TestRunQuickFigure(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-quick", "-trials", "2", "-no-ascii", "-out", dir, "fig8-n20",
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8-n20.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV written")
	}
}

func TestRunQuickTable(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-trials", "1", "-no-ascii", "-out", dir, "topo-cost"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "topo-cost.csv")); err != nil {
		t.Error("topo-cost.csv missing")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no targets accepted")
	}
	if err := run([]string{"-out", t.TempDir(), "nosuch-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-quick", "-scheme", "insecure", "-out", t.TempDir(), "fig3"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-quick", "-trials", "-3", "-out", t.TempDir(), "fig3"}); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("negative -trials: %v, want an error naming -trials", err)
	}
}

// TestUnknownExperimentKeepsCheckpoint checks that a mistyped target fails
// before any unit runs: a valid target beside it writes nothing, and the
// results already in the output directory are left untouched.
func TestUnknownExperimentKeepsCheckpoint(t *testing.T) {
	out := t.TempDir()
	kept := filepath.Join(out, "fig3.csv")
	const line = "kept\n"
	if err := os.WriteFile(kept, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-out", out, "fig3", "nosuch"}); err == nil {
		t.Fatal("unknown experiment beside a valid one accepted")
	}
	if data, err := os.ReadFile(kept); err != nil || string(data) != line {
		t.Errorf("fig3.csv now holds %q (%v), want it untouched", data, err)
	}
	if files, err := os.ReadDir(out); err != nil || len(files) != 1 {
		t.Errorf("output dir holds %v (%v), want only fig3.csv", files, err)
	}
}

// TestResumeRequiresStream checks that -resume, deleted with the sweep
// checkpoint, is refused as an unknown flag rather than ignored.
func TestResumeRequiresStream(t *testing.T) {
	if err := run([]string{"-resume", "-out", t.TempDir(), "fig3"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-resume: %v, want an unknown-flag error", err)
	}
}

func TestListMode(t *testing.T) {
	// -list needs no targets and writes no files.
	if err := run([]string{"-list"}); err != nil {
		t.Errorf("run(-list): %v", err)
	}
}

func TestRunQuickRedTeam(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-trials", "1", "-no-ascii", "-out", dir, "redteam"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "redteam.csv")); err != nil {
		t.Error("redteam.csv missing")
	}
}

// TestMultiExperimentPlan runs two experiments as one scheduled plan on
// four jobs: each CSV must match the one the experiment writes alone on
// one job.
func TestMultiExperimentPlan(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-trials", "2", "-no-ascii", "-jobs", "4",
		"-out", dir, "fig8-n20", "topo-cost"}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	for _, id := range []string{"fig8-n20", "topo-cost"} {
		alone := t.TempDir()
		if err := run([]string{"-quick", "-trials", "2", "-no-ascii", "-jobs", "1",
			"-out", alone, id}); err != nil {
			t.Fatalf("%s alone: %v", id, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(alone, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s.csv from the two-experiment plan differs from its run alone", id)
		}
	}
}

// runCaptured calls run with args and returns what it printed to stdout.
func runCaptured(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := string(<-printed)
	if runErr != nil {
		t.Fatalf("run(%v): %v\n%s", args, runErr, out)
	}
	return out
}

// unitsRun reads the units run off the summary line.
func unitsRun(t *testing.T, out string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(\d+) run\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no summary line in:\n%s", out)
	}
	run, _ := strconv.ParseInt(m[1], 10, 64)
	return run
}

// readMetrics loads a -metrics-out file's samples by name.
func readMetrics(t *testing.T, path string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, sc.Text(), err)
		}
		samples[name] = v
	}
	return samples
}

// checkUnitMetrics holds a -metrics-out file to the summary of a run with
// no failures: the two unit counters, one latency observation per unit
// run, no gauges.
func checkUnitMetrics(t *testing.T, path, out string) {
	t.Helper()
	if strings.Contains(out, "FAILED") {
		t.Fatalf("a unit failed:\n%s", out)
	}
	run := unitsRun(t, out)
	m := readMetrics(t, path)
	for name, want := range map[string]int64{
		"nectar_exp_units_run_total":    run,
		"nectar_exp_units_failed_total": 0,
		"nectar_exp_unit_seconds_count": run,
	} {
		if got, ok := m[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), want %d", name, got, ok, want)
		}
	}
	// Two counters and the histogram's buckets, +Inf, _sum and _count.
	if want := 2 + len(obs.DefBuckets) + 3; len(m) != want {
		t.Errorf("%d samples, want %d: %v", len(m), want, m)
	}
}

// TestTelemetry: nectar-bench's trace and metrics files agree with the
// run's own summary — one unit_start and one unit_done per unit run, and
// counters rendered from the same units.
func TestTelemetry(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom")
	out := runCaptured(t, "-quick", "-no-ascii", "-out", dir,
		"-trace", trace, "-metrics-out", metrics, "fig3")
	checkUnitMetrics(t, metrics, out)

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	type unit struct {
		key string
		i   int
	}
	starts, dones := map[unit]int{}, map[unit]int{}
	for _, ev := range events {
		switch ev.Type {
		case obs.EvUnitStart:
			starts[unit{ev.Key, ev.Unit}]++
		case obs.EvUnitDone:
			dones[unit{ev.Key, ev.Unit}]++
		}
	}
	run := unitsRun(t, out)
	if int64(len(starts)) != run || len(dones) != len(starts) {
		t.Errorf("%d units started, %d done, %d run", len(starts), len(dones), run)
	}
	for u, n := range starts {
		if n != 1 || dones[u] != 1 {
			t.Errorf("unit %v: %d unit_start, %d unit_done", u, n, dones[u])
		}
	}
}

// TestTraceMustBeJSONL: -trace has one capture path; any other name
// fails before a unit runs, naming the converter.
func TestTraceMustBeJSONL(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.prom")
	err := run([]string{"-quick", "-out", dir, "-trace", filepath.Join(dir, "t.json"),
		"-metrics-out", metrics, "fig3"})
	if err == nil || !strings.Contains(err.Error(), "nectar-trace chrome") {
		t.Fatalf("run = %v, want an error naming nectar-trace chrome", err)
	}
	if _, err := os.Stat(metrics); !os.IsNotExist(err) {
		t.Error("a run started: the metrics file was written")
	}
}
