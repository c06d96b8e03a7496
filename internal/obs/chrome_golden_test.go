package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteChromeTraceGolden pins the exact bytes of the Chrome
// trace-event conversion over one of every event shape: a round
// begin/end pair, an epoch pair, a scheduler unit pair, and instants
// with and without attrs. Any format drift (field order, phase mapping,
// args handling) fails here before it confuses a trace viewer; this is
// the converter behind nectar-trace chrome.
func TestWriteChromeTraceGolden(t *testing.T) {
	rec := NewRecorder(nil)
	for _, ev := range []Event{
		{Type: EvEpochStart, Epoch: 0, Round: 1, N: 3},
		{Type: EvRoundStart, Round: 1},
		{Type: EvMsgDeliver, Round: 1, Node: 2, N: 5},
		{Type: EvChainAccept, Round: 1, Node: 2, N: 2, Attrs: []Attr{{K: "u", V: 0}, {K: "v", V: 1}, {K: "from", V: 4}}},
		{Type: EvQuiesce, Round: 1, N: 9},
		{Type: EvRoundEnd, Round: 1, N: 4096},
		{Type: EvUnitStart, Key: "fig3", Unit: 0},
		{Type: EvUnitDone, Key: "fig3", Unit: 0, N: 1500},
		{Type: EvEpochVerdict, Epoch: 0, Key: "NOT_PARTITIONABLE"},
	} {
		rec.Emit(ev)
	}
	var got bytes.Buffer
	if err := WriteChromeTraceEvents(&got, rec.Events()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/obs -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chrome trace drifted:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
