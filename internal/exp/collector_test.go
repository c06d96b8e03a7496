package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// cutPlan is the sweep the checkpoint tests interrupt: two specs, five
// units in all.
func cutPlan(t *testing.T) (*Plan, []*fakeRunner) {
	runners := []*fakeRunner{newFakeRunner("a", 3, 2), newFakeRunner("b", 4, 3)}
	return mustPlan(t, runners...), runners
}

// runsOf sums the units the runners actually ran.
func runsOf(runners []*fakeRunner) int {
	n := 0
	for _, r := range runners {
		n += int(r.runs.Load())
	}
	return n
}

// resumeToEnd resumes the checkpoint at path, runs the sweep to
// completion, and returns its results and the units it re-ran.
func resumeToEnd(t *testing.T, path string) (*Results, int) {
	t.Helper()
	c, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	plan, runners := cutPlan(t)
	res, err := Execute(plan, Options{Jobs: 2, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return res, runsOf(runners)
}

// wholeRecords counts the distinct units among data's newline-terminated
// lines that parse — what Resumed must report for it.
func wholeRecords(data []byte) int {
	keys := make(map[resumeKey]bool)
	lines := bytes.Split(data, []byte{'\n'})
	for _, line := range lines[:len(lines)-1] { // the last has no newline
		var rec recordLine
		if json.Unmarshal(line, &rec) == nil && rec.Data != nil {
			keys[resumeKey{rec.Key, rec.FP, rec.Unit, rec.Seed}] = true
		}
	}
	return len(keys)
}

// TestResumeAfterTornTail: a resume that follows a torn last line must put
// its first record on a line of its own. Appended onto the torn bytes, it
// was unreadable, and the following resume re-ran it.
func TestResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	c, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append("k", "fp", 0, 42, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"spec":"k","fp":"fp","unit":1,"se`) // the crash
	f.Close()

	c2, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Append("k", "fp", 1, 43, json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	c3, err := OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Resumed() != 2 {
		t.Errorf("want 2 resumable records after the second resume, got %d", c3.Resumed())
	}
	if _, ok := c3.Lookup("k", "fp", 1, 43); !ok {
		t.Error("the record appended after the torn line was lost")
	}
}

// TestResumeFromEveryCut cuts a finished sweep's checkpoint at every byte
// offset, as a crash could, and resumes each to completion: every run must
// give the uninterrupted aggregates, serve exactly the whole lines before
// the cut, re-run the rest, and leave a checkpoint from which a further
// resume re-runs nothing.
func TestResumeFromEveryCut(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	c, err := OpenCollector(full, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, runners := cutPlan(t)
	ref, err := Execute(plan, Options{Jobs: 1, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	want := aggregates(t, ref)
	units := runsOf(runners)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, ran := resumeToEnd(t, path)
		if got := aggregates(t, res); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: aggregates %v, want %v", cut, got, want)
		}
		if served := wholeRecords(data[:cut]); res.UnitsResumed != served || ran != units-served {
			t.Fatalf("cut at %d: served %d and ran %d units, want %d and %d",
				cut, res.UnitsResumed, ran, served, units-served)
		}
		if res, ran := resumeToEnd(t, path); ran != 0 || res.UnitsResumed != units {
			t.Fatalf("cut at %d: the next resume ran %d units and served %d, want 0 and %d",
				cut, ran, res.UnitsResumed, units)
		}
	}
}

// FuzzCollectorLoad opens arbitrary bytes as a checkpoint to resume. It
// must not panic; Resumed must count exactly the distinct units among the
// whole lines that parse; and a record appended then must be readable by
// the next resume.
func FuzzCollectorLoad(f *testing.F) {
	line := func(unit int) string {
		b, _ := json.Marshal(recordLine{Key: "k", FP: "fp", Unit: unit, Seed: 7, Data: json.RawMessage(`{"v":1}`)})
		return string(b) + "\n"
	}
	f.Add([]byte(""))
	f.Add([]byte(line(0) + line(1)))
	f.Add([]byte(line(0) + line(0) + "\n\n"))
	f.Add([]byte(line(0) + `{"spec":"k","fp":"fp","unit":1,"se`))
	f.Add([]byte(line(0)[:20] + "\n" + line(2)))
	f.Add([]byte(`{"spec":"k","data":null}` + "\n" + `{"unit":"x"}` + "\n\xff\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trials.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCollector(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Resumed(), wholeRecords(data); got != want {
			t.Errorf("Resumed() = %d, want %d whole parseable records", got, want)
		}
		if err := c.Append("appended", "fp", 0, 1, json.RawMessage(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := OpenCollector(path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if _, ok := c2.Lookup("appended", "fp", 0, 1); !ok {
			t.Error("the record appended on resume is unreadable")
		}
		if got, want := c2.Resumed(), wholeRecords(after); got != want {
			t.Errorf("after an append, Resumed() = %d, want %d", got, want)
		}
	})
}
