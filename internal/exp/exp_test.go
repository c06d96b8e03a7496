package exp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fakeRecord is a unit record with enough structure to catch ordering
// mistakes.
type fakeRecord struct {
	Seed  int64
	Value float64
}

// fakeRunner is a NewRunner whose unit records derive purely from (seed
// base, index); failAt injects an error at one unit index (-1 = never).
type fakeRunner struct {
	TrialRunner
	name   string
	failAt int
}

func newFakeRunner(name string, seed int64, units int) *fakeRunner {
	r := &fakeRunner{name: name, failAt: -1}
	unitSeed := func(i int) int64 { return seed + int64(i)*0x9E3779B9 }
	r.TrialRunner = NewRunner(units, unitSeed,
		func(i, engineWorkers int) (fakeRecord, error) {
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

// TestRunnerChecksRecordTypes: Finalize refuses a record of any other
// type instead of folding it.
func TestRunnerChecksRecordTypes(t *testing.T) {
	r := newFakeRunner("r", 1, 2)
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

// TestFinalizeGetsRunRecords: a spec folds the very values its units
// returned — an unexported field and a pointer into the caller's memory
// arrive intact, where a serialization round trip would zero the one and
// copy the other.
func TestFinalizeGetsRunRecords(t *testing.T) {
	type record struct {
		unit   int
		origin *int
	}
	origins := make([]int, 6)
	var folded []record
	r := NewRunner(len(origins), func(i int) int64 { return int64(i) },
		func(i, _ int) (record, error) { return record{unit: i + 1, origin: &origins[i]}, nil },
		func(recs []record) int {
			folded = recs
			return len(recs)
		})
	plan := &Plan{}
	if err := plan.Add("s", r); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg := res.Get("s").Aggregate; agg != len(origins) {
		t.Fatalf("aggregate = %v, want %d", agg, len(origins))
	}
	for i, rec := range folded {
		if rec.unit != i+1 || rec.origin != &origins[i] {
			t.Errorf("record %d folded as {unit %d, origin %p}, want {unit %d, origin %p}",
				i, rec.unit, rec.origin, i+1, &origins[i])
		}
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
