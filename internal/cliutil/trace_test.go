package cliutil

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/obs"
)

func sampleEvents() []obs.Event {
	return []obs.Event{
		{Type: obs.EvRoundStart, Round: 1},
		{Type: obs.EvMsgDeliver, Round: 1, Node: 2, N: 3},
		{Type: obs.EvRoundEnd, Round: 1, N: 64},
	}
}

// TestOpenTraceJSONLStreams: a .jsonl trace streams — events are on disk
// (modulo buffering) without any Recorder, and load back equal.
func TestOpenTraceJSONLStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ts, err := OpenTrace(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sampleEvents() {
		ts.Emit(ev)
	}
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ts.Len())
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 || loaded[1].Node != 2 || loaded[1].N != 3 {
		t.Fatalf("round trip lost events: %+v", loaded)
	}
	// LogicalClock stamps 0-based ordinals.
	if loaded[0].Ts != 0 || loaded[2].Ts != 2 {
		t.Fatalf("logical timestamps = %d,%d,%d", loaded[0].Ts, loaded[1].Ts, loaded[2].Ts)
	}
}

// TestOpenTraceRefusesOtherExtensions: -trace has one capture path, so
// any other name fails before a file is created, pointing at the
// converter.
func TestOpenTraceRefusesOtherExtensions(t *testing.T) {
	for _, name := range []string{"trace.json", "trace", "trace.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		_, err := OpenTrace(path, nil)
		if err == nil || !strings.Contains(err.Error(), "nectar-trace chrome") {
			t.Errorf("OpenTrace(%s) = %v, want an error naming nectar-trace chrome", name, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Errorf("OpenTrace(%s) created the file", name)
		}
	}
}

// TestWriteMetrics: the -metrics-out file is the registry's exposition.
func TestWriteMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("nectar_test_total", "A test counter.").Add(3)
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := WriteMetrics(path, reg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := reg.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("metrics file = %q (%v), want %q", got, err, want.Bytes())
	}
	if err := WriteMetrics(filepath.Join(path, "sub"), reg); err == nil {
		t.Error("writing under a file succeeded")
	}
}
