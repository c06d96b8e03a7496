package main

import (
	"os"
	"path/filepath"
	"testing"
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

// TestMultiExperimentPlanWithStreamAndResume runs two experiments as one
// scheduled plan with a JSONL stream, then re-runs with -resume: the
// second pass must serve every trial from the checkpoint and reproduce
// the CSVs byte for byte.
func TestMultiExperimentPlanWithStreamAndResume(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "trials.jsonl")
	args := []string{"-quick", "-trials", "2", "-no-ascii", "-jobs", "4",
		"-stream", stream, "-out", dir, "fig8-n20", "topo-cost"}
	if err := run(args); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	fig1, err := os.ReadFile(filepath.Join(dir, "fig8-n20.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tbl1, err := os.ReadFile(filepath.Join(dir, "topo-cost.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stream); err != nil {
		t.Fatalf("stream file missing: %v", err)
	}

	dir2 := t.TempDir()
	resumeArgs := []string{"-quick", "-trials", "2", "-no-ascii", "-jobs", "2",
		"-stream", stream, "-resume", "-out", dir2, "fig8-n20", "topo-cost"}
	if err := run(resumeArgs); err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	fig2, err := os.ReadFile(filepath.Join(dir2, "fig8-n20.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := os.ReadFile(filepath.Join(dir2, "topo-cost.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(fig1) != string(fig2) {
		t.Error("resumed fig8-n20.csv differs from fresh run")
	}
	if string(tbl1) != string(tbl2) {
		t.Error("resumed topo-cost.csv differs from fresh run")
	}
}

// TestUnknownExperimentKeepsCheckpoint: a mistyped target fails before
// the -stream checkpoint is opened, so a fresh run's truncation never
// costs a checkpoint a typo was going to refuse anyway.
func TestUnknownExperimentKeepsCheckpoint(t *testing.T) {
	stream := filepath.Join(t.TempDir(), "trials.jsonl")
	const line = "{\"spec\":\"kept\"}\n"
	if err := os.WriteFile(stream, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-stream", stream, "-out", t.TempDir(), "fig8", "nosuch"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if data, err := os.ReadFile(stream); err != nil || string(data) != line {
		t.Errorf("checkpoint now holds %q (%v), want it untouched", data, err)
	}
}

func TestResumeRequiresStream(t *testing.T) {
	if err := run([]string{"-resume", "-out", t.TempDir(), "fig3"}); err == nil {
		t.Error("-resume without -stream accepted")
	}
}
