package traceview_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	nectar "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/traceview"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStatic runs a small static simulation with full tracing and
// returns the recorded events. Everything is seeded, so the event
// sequence — and every report rendered from it — is bit-stable.
func captureStatic(t *testing.T) []obs.Event {
	t.Helper()
	g, err := nectar.Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	if _, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: g, T: 1, Seed: 7, SchemeName: "hmac", Workers: 1, Tracer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// captureDynamic runs a two-epoch partition/heal schedule with tracing.
func captureDynamic(t *testing.T) []obs.Event {
	t.Helper()
	g, err := nectar.Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := nectar.PartitionHealSchedule(g, 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	if _, err := nectar.SimulateDynamic(nectar.DynamicConfig{
		Schedule: sched, T: 1, Seed: 7, Epochs: 2,
		SchemeName: "hmac", Workers: 1, Tracer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/traceview -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestSummarizeGoldenStatic(t *testing.T) {
	events := captureStatic(t)
	var buf bytes.Buffer
	if err := traceview.Summarize(events).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summarize_static.golden", buf.Bytes())
}

func TestSummarizeGoldenDynamic(t *testing.T) {
	events := captureDynamic(t)
	var buf bytes.Buffer
	if err := traceview.Summarize(events).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summarize_dynamic.golden", buf.Bytes())
}

func TestExplainGolden(t *testing.T) {
	events := captureStatic(t)
	var buf bytes.Buffer
	for i, st := range traceview.Explain(events, 3) {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := st.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "explain_static.golden", buf.Bytes())
}

// TestExplainEvidenceComplete checks structural invariants of the
// reconstruction for every node: the reachable set ends at n, the
// verdict round is within the run, and the kappa_eval verdict matches
// the agreed decision.
func TestExplainEvidenceComplete(t *testing.T) {
	const n = 10
	events := captureStatic(t)
	for node := 0; node < n; node++ {
		stories := traceview.Explain(events, node)
		if len(stories) != 1 {
			t.Fatalf("node %d: %d stories, want 1", node, len(stories))
		}
		st := stories[0]
		if st.ReachFinal != n {
			t.Errorf("node %d: reachable set ends at %d, want %d", node, st.ReachFinal, n)
		}
		if st.Eval == nil {
			t.Fatalf("node %d: no kappa_eval", node)
		}
		if st.Eval.Key != "NOT_PARTITIONABLE" {
			t.Errorf("node %d: decision %q", node, st.Eval.Key)
		}
		if dr := st.DeterminedRound(); dr <= 0 || dr >= n {
			t.Errorf("node %d: verdict fixed at round %d, want within (0,%d)", node, dr, n)
		}
	}
}

func TestLintCleanRun(t *testing.T) {
	if findings := traceview.Lint(captureStatic(t)); len(findings) != 0 {
		t.Fatalf("clean run produced findings: %+v", findings)
	}
	if findings := traceview.Lint(captureDynamic(t)); len(findings) != 0 {
		t.Fatalf("clean dynamic run produced findings: %+v", findings)
	}
}

func TestLintFindsAnomalies(t *testing.T) {
	// A hand-built segment: round 1 delivers, round 2 is silent, round 3
	// delivers again (idle_round), with a non-edge discard and a chain
	// reject; the run never quiesces and ends with silent rounds
	// (quiesce_stall).
	events := []obs.Event{
		{Type: obs.EvRoundStart, Round: 1},
		{Type: obs.EvMsgDeliver, Round: 1, Node: 0, N: 2},
		{Type: obs.EvChainReject, Round: 1, Node: 0, Key: "chain_sig", N: 2},
		{Type: obs.EvMsgDiscard, Round: 1, N: 3, Attrs: []obs.Attr{{K: "nonedge", V: 3}, {K: "loss", V: 0}}},
		{Type: obs.EvRoundEnd, Round: 1, N: 100},
		{Type: obs.EvRoundStart, Round: 2},
		{Type: obs.EvRoundEnd, Round: 2, N: 0},
		{Type: obs.EvRoundStart, Round: 3},
		{Type: obs.EvMsgDeliver, Round: 3, Node: 1, N: 1},
		{Type: obs.EvRoundEnd, Round: 3, N: 50},
		{Type: obs.EvRoundStart, Round: 4},
		{Type: obs.EvRoundEnd, Round: 4, N: 0},
		{Type: obs.EvRoundStart, Round: 5},
		{Type: obs.EvRoundEnd, Round: 5, N: 0},
	}
	findings := traceview.Lint(events)
	kinds := make(map[string]int)
	for _, f := range findings {
		kinds[f.Kind]++
	}
	for _, want := range []string{"idle_round", "quiesce_stall", "nonedge_discard", "chain_reject"} {
		if kinds[want] == 0 {
			t.Errorf("missing finding %q in %+v", want, findings)
		}
	}
	var buf bytes.Buffer
	traceview.WriteFindings(&buf, findings)
	checkGolden(t, "lint_findings.golden", buf.Bytes())
}

func TestDiff(t *testing.T) {
	events := captureStatic(t)
	if d := traceview.Diff(events, events); d != nil {
		t.Fatalf("identical traces diverge at %d", d.Index)
	}
	mutated := append([]obs.Event(nil), events...)
	mutated[5].N += 1
	d := traceview.Diff(events, mutated)
	if d == nil || d.Index != 5 {
		t.Fatalf("divergence = %+v, want index 5", d)
	}
	// Prefix: one side ends early.
	d = traceview.Diff(events, events[:10])
	if d == nil || d.Index != 10 || d.B != nil || d.A == nil {
		t.Fatalf("prefix divergence = %+v", d)
	}
}

// TestRoundTripThroughJSONL pins that reports are identical whether
// rendered from in-memory events or from events persisted as JSONL and
// loaded back — the CLI path.
func TestRoundTripThroughJSONL(t *testing.T) {
	events := captureStatic(t)
	var jsonl bytes.Buffer
	sink := obs.NewStreamSink(&jsonl, nil)
	for _, ev := range events {
		e := ev
		e.Ts = 0 // StreamSink re-stamps
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := obs.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := traceview.Summarize(events).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := traceview.Summarize(loaded).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("summary differs after JSONL round trip")
	}
}
