package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeRecord is a unit record with enough structure to catch ordering
// and round-trip mistakes.
type fakeRecord struct {
	Seed  int64   `json:"seed"`
	Value float64 `json:"value"`
}

// fakeRunner is a NewRunner whose unit records derive purely from (seed
// base, index); failAt injects an error at one unit index (-1 = never).
type fakeRunner struct {
	TrialRunner
	name   string
	failAt int
	runs   *atomic.Int64 // counts actual Run invocations across executes
}

func newFakeRunner(name string, seed int64, units int) *fakeRunner {
	r := &fakeRunner{name: name, failAt: -1, runs: &atomic.Int64{}}
	unitSeed := func(i int) int64 { return seed + int64(i)*0x9E3779B9 }
	r.TrialRunner = NewRunner(fmt.Sprintf("fake|%s|%d", name, seed), units, unitSeed,
		func(i, engineWorkers int) (fakeRecord, error) {
			r.runs.Add(1)
			if i == r.failAt {
				return fakeRecord{}, errors.New("injected unit failure")
			}
			if engineWorkers < 1 {
				return fakeRecord{}, fmt.Errorf("engineWorkers=%d", engineWorkers)
			}
			s := unitSeed(i)
			return fakeRecord{Seed: s, Value: float64(s%1000) / 7}, nil
		},
		// Order-sensitive fold: a scheduler delivering records out of unit
		// order produces a different aggregate.
		func(recs []fakeRecord) float64 {
			var sum float64
			for i, rec := range recs {
				sum += float64(i+1) * rec.Value
			}
			return sum
		})
	return r
}

// TestRunnerChecksRecordTypes: Decode fills the runner's record type and
// refuses bytes that do not unmarshal into it; Finalize refuses a record of
// any other type instead of folding it.
func TestRunnerChecksRecordTypes(t *testing.T) {
	r := newFakeRunner("r", 1, 2)
	rec, err := r.Decode(json.RawMessage(`{"seed":7,"value":0.5}`))
	if err != nil || rec != (fakeRecord{Seed: 7, Value: 0.5}) {
		t.Errorf("Decode = %#v, %v", rec, err)
	}
	if _, err := r.Decode(json.RawMessage(`{"seed":"x"}`)); err == nil {
		t.Error("Decode accepted a record of the wrong shape")
	}
	if _, err := r.Finalize([]any{fakeRecord{}, "stray"}); err == nil || !strings.Contains(err.Error(), "record 1 has type string") {
		t.Errorf("Finalize with a foreign record: %v", err)
	}
	if agg, err := r.Finalize([]any{fakeRecord{Value: 1}, fakeRecord{Value: 2}}); err != nil || agg != 5.0 {
		t.Errorf("Finalize = %v, %v, want 5", agg, err)
	}
}

func mustPlan(t *testing.T, runners ...*fakeRunner) *Plan {
	t.Helper()
	p := &Plan{}
	for _, r := range runners {
		if err := p.Add(r.name, r); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func aggregates(t *testing.T, res *Results) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for _, sr := range res.Specs {
		if sr.Err != nil {
			t.Fatalf("spec %s: %v", sr.Key, sr.Err)
		}
		out[sr.Key] = sr.Aggregate
	}
	return out
}

func TestExecuteAggregatesIdenticalAcrossJobs(t *testing.T) {
	build := func() *Plan {
		return mustPlan(t,
			newFakeRunner("a", 11, 7),
			newFakeRunner("b", 22, 1),
			newFakeRunner("c", 33, 13),
		)
	}
	ref, err := Execute(build(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := aggregates(t, ref)
	for _, jobs := range []int{2, 8, 32} {
		res, err := Execute(build(), Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := aggregates(t, res); !reflect.DeepEqual(got, want) {
			t.Errorf("jobs=%d: aggregates differ: got %v want %v", jobs, got, want)
		}
	}
}

func TestExecuteResumeReusesCheckpointedUnits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")

	// Reference: clean run, no collector.
	ref, err := Execute(mustPlan(t, newFakeRunner("s", 5, 9)), Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := aggregates(t, ref)

	// Killed run: what a kill -9 after the third checkpointed unit leaves
	// on disk — a complete checkpoint cut to its first three lines.
	c, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(mustPlan(t, newFakeRunner("s", 5, 9)), Options{Jobs: 1, Collector: c}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	keepLines(t, path, 3)

	// Resumed run: checkpointed units must be served, not re-run, and the
	// aggregate must match the clean run byte for byte.
	c2, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Resumed() == 0 {
		t.Fatal("no records served from the cut checkpoint")
	}
	r := newFakeRunner("s", 5, 9)
	res, err := Execute(mustPlan(t, r), Options{Jobs: 2, Collector: c2})
	if err != nil {
		t.Fatal(err)
	}
	if got := aggregates(t, res); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregate differs: got %v want %v", got, want)
	}
	if res.UnitsResumed == 0 {
		t.Error("resume did not reuse any checkpointed unit")
	}
	if int(r.runs.Load())+res.UnitsResumed != 9 {
		t.Errorf("runs (%d) + resumed (%d) != 9 units", r.runs.Load(), res.UnitsResumed)
	}
}

// keepLines cuts the file at path to its first k lines.
func keepLines(t *testing.T, path string, k int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) <= k {
		t.Fatalf("%s has %d lines, want more than %d", path, len(lines), k)
	}
	if err := os.WriteFile(path, bytes.Join(lines[:k], nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteResumeIgnoresStaleFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	c, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(mustPlan(t, newFakeRunner("s", 5, 3)), Options{Jobs: 1, Collector: c}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Same key, different seed → different fingerprint and unit seeds:
	// nothing may be served from the stale checkpoint.
	c2, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := Execute(mustPlan(t, newFakeRunner("s", 6, 3)), Options{Jobs: 1, Collector: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsResumed != 0 {
		t.Errorf("stale checkpoint reused: %d units", res.UnitsResumed)
	}
}

func TestExecuteFailFastStillFinalizesCompletedSpecs(t *testing.T) {
	ok := newFakeRunner("ok", 1, 2)
	bad := newFakeRunner("bad", 2, 3)
	bad.failAt = 1
	res, err := Execute(mustPlan(t, ok, bad), Options{Jobs: 1})
	if err == nil {
		t.Fatal("want unit error")
	}
	if sr := res.Get("ok"); sr == nil || sr.Err != nil || sr.Aggregate == nil {
		t.Errorf("completed spec not finalized: %+v", sr)
	}
	if sr := res.Get("bad"); sr == nil || sr.Err == nil {
		t.Error("failing spec has no error")
	}
}

// TestExecuteResumeAfterUnitFailure: a run that stops on a failed unit
// leaves every unit it committed in the checkpoint, and a resume serves
// exactly those, runs the rest, and adds one line per unit it ran.
func TestExecuteResumeAfterUnitFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failed.jsonl")
	a, b := newFakeRunner("a", 31, 8), newFakeRunner("b", 32, 6)
	const total = 14
	ref, err := Execute(mustPlan(t, newFakeRunner("a", 31, 8), newFakeRunner("b", 32, 6)), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	b.failAt = 3
	col, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(mustPlan(t, a, b), Options{Jobs: 1, Collector: col})
	col.Close()
	if err == nil || !strings.Contains(err.Error(), "injected unit failure") {
		t.Fatalf("want the injected failure, got %v", err)
	}

	b.failAt = -1
	col, err = OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	committed := col.Resumed()
	if committed == 0 || committed >= total {
		t.Fatalf("failed run checkpointed %d of %d units, want a strict part", committed, total)
	}
	before := a.runs.Load() + b.runs.Load()
	res, err := Execute(mustPlan(t, a, b), Options{Jobs: 2, Collector: col})
	col.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsResumed != committed || res.UnitsRun != total-committed {
		t.Errorf("resumed %d, run %d; want %d and %d", res.UnitsResumed, res.UnitsRun, committed, total-committed)
	}
	if ran := int(a.runs.Load() + b.runs.Load() - before); ran != total-committed {
		t.Errorf("resume ran %d units, want %d", ran, total-committed)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != total {
		t.Errorf("checkpoint has %d lines, want %d (one per unit)", lines, total)
	}
	if got, want := aggregates(t, res), aggregates(t, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregates differ: got %v want %v", got, want)
	}
}

func TestCollectorSkipsTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	c, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append("k", "fp", 0, 42, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Simulate a crash mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"spec":"k","fp":"fp","unit":1,"se`)
	f.Close()

	c2, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Resumed() != 1 {
		t.Errorf("want 1 resumable record, got %d", c2.Resumed())
	}
	if _, ok := c2.Lookup("k", "fp", 0, 42); !ok {
		t.Error("intact record lost")
	}
	if _, ok := c2.Lookup("k", "fp", 1, 0); ok {
		t.Error("torn record served")
	}
}

// TestOnUnitSerializedAndMonotone pins the Options.OnUnit contract: the
// callback is serialized (no concurrent invocations) and Done counts
// arrive strictly increasing, even with many workers.
func TestOnUnitSerializedAndMonotone(t *testing.T) {
	var done []int // appended without a lock: -race catches concurrency
	res, err := Execute(mustPlan(t, newFakeRunner("a", 1, 20), newFakeRunner("b", 2, 20)), Options{
		Jobs: 8,
		OnUnit: func(ev UnitEvent) {
			done = append(done, ev.Done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 40 {
		t.Fatalf("got %d events, want 40", len(done))
	}
	for i, d := range done {
		if d != i+1 {
			t.Fatalf("Done not monotone: event %d reported %d", i, d)
		}
	}
	if res.UnitsRun != 40 {
		t.Errorf("UnitsRun = %d, want 40", res.UnitsRun)
	}
}

func TestPlanRejectsDuplicateKeys(t *testing.T) {
	p := &Plan{}
	if err := p.Add("x", newFakeRunner("x", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("x", newFakeRunner("x", 1, 1)); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := p.Add("", newFakeRunner("e", 1, 1)); err == nil {
		t.Error("empty key accepted")
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		jobs, units, wantUnit, wantEngine int
	}{
		{8, 100, 8, 1}, // plenty of units: all budget to trial level
		{8, 2, 2, 4},   // few units: leftover budget to the engine
		{8, 1, 1, 8},   // one unit: the engine gets everything
		{1, 50, 1, 1},  // serial
		{0, 5, 1, 1},   // degenerate budget clamps to 1
		{3, 2, 2, 1},   // non-divisible budgets round the engine share down
	}
	for _, c := range cases {
		u, e := SplitBudget(c.jobs, c.units)
		if u != c.wantUnit || e != c.wantEngine {
			t.Errorf("SplitBudget(%d,%d) = (%d,%d), want (%d,%d)",
				c.jobs, c.units, u, e, c.wantUnit, c.wantEngine)
		}
	}
}
