package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	nectar "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
)

// writeTrace simulates a small traced run and persists it as JSONL,
// returning the file path. Seeded, so the trace is identical across
// runs — the CLI outputs below are deterministic.
func writeTrace(t *testing.T, dir string, byz map[nectar.NodeID]nectar.AttackKind) string {
	t.Helper()
	g, err := nectar.Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	if _, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: g, T: 1, Seed: 7, SchemeName: "hmac", Workers: 1, Tracer: rec,
		Byzantine: byz,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes run() with stdout captured to a temp file.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, err := run(args, out)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestSummarizeCLI(t *testing.T) {
	trace := writeTrace(t, t.TempDir(), nil)
	code, out := runCLI(t, "summarize", trace)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"trace: 257 events", "chain_accept", "segment static", "quiesce: after round 3 -> 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("summarize output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainCLI(t *testing.T) {
	trace := writeTrace(t, t.TempDir(), nil)
	code, out := runCLI(t, "explain", "-node", "3", trace)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"node 3 evidence timeline:",
		"reachable set final at round 2 (size 10)",
		"kappa_eval: decision=NOT_PARTITIONABLE reachable=10 bound=2 t=1 over_t=yes confirmed=no",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestLintCLIExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := writeTrace(t, dir, nil)
	if code, out := runCLI(t, "lint", clean); code != 0 || !strings.Contains(out, "no findings") {
		t.Fatalf("clean trace: exit %d, out %q", code, out)
	}
	// A garbage flooder's random bytes fail proof verification at every
	// receiver: lint must surface the chain_reject volume and exit 1.
	byzDir := t.TempDir()
	noisy := writeTrace(t, byzDir, map[nectar.NodeID]nectar.AttackKind{9: nectar.AttackGarbage})
	code, out := runCLI(t, "lint", noisy)
	if code != 1 {
		t.Fatalf("byzantine trace: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "chain_reject") {
		t.Errorf("byzantine lint missing chain_reject:\n%s", out)
	}
}

func TestDiffCLI(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, nil)
	if code, out := runCLI(t, "diff", a, a); code != 0 || !strings.Contains(out, "traces identical") {
		t.Fatalf("self-diff: exit %d, out %q", code, out)
	}
	b := writeTrace(t, t.TempDir(), map[nectar.NodeID]nectar.AttackKind{9: nectar.AttackCrash})
	code, out := runCLI(t, "diff", a, b)
	if code != 1 || !strings.Contains(out, "traces diverge at event") {
		t.Fatalf("diff of different traces: exit %d, out %q", code, out)
	}
}

func TestChromeCLI(t *testing.T) {
	trace := writeTrace(t, t.TempDir(), nil)
	code, out := runCLI(t, "chrome", trace)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 257 {
		t.Fatalf("%d chrome events, want 257", len(doc.TraceEvents))
	}
	// The subcommand is obs.WriteChromeTraceEvents over the loaded events.
	events, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := obs.ReadJSONL(bytes.NewReader(events))
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := obs.WriteChromeTraceEvents(&direct, loaded); err != nil {
		t.Fatal(err)
	}
	if direct.String() != out {
		t.Fatal("chrome subcommand output differs from direct conversion")
	}
}
