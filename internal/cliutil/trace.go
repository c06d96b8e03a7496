package cliutil

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"github.com/nectar-repro/nectar/internal/obs"
)

// TraceSink is the capture side of a -trace flag, shared by nectar-sim
// and nectar-bench: an obs.StreamSink (pass the TraceSink as the config
// Tracer) encoding events to a JSONL file as they arrive, so memory stays
// bounded however long the run, plus a Close that finalizes the file.
// `nectar-trace chrome` converts the file for a trace viewer.
type TraceSink struct {
	*obs.StreamSink

	path string
	f    *os.File
}

// OpenTrace creates the JSONL trace file path. Any other extension is
// refused before the file is created. A nil clock means the
// deterministic LogicalClock; edge binaries that want wall-clock lanes
// pass an obs.ClockFunc.
func OpenTrace(path string, clock obs.Clock) (*TraceSink, error) {
	if !strings.HasSuffix(path, ".jsonl") {
		return nil, fmt.Errorf("-trace %s: traces are written as JSONL; name a .jsonl file and convert it with nectar-trace chrome", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &TraceSink{StreamSink: obs.NewStreamSink(f, clock), path: path, f: f}, nil
}

// Close flushes the events and closes the file.
func (ts *TraceSink) Close() error {
	err := ts.StreamSink.Close()
	if cerr := ts.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", ts.path, err)
	}
	return nil
}

// WriteMetrics writes reg to path in the Prometheus text exposition
// format: the -metrics-out file of nectar-sim and nectar-bench.
func WriteMetrics(path string, reg *obs.Registry) error {
	var buf bytes.Buffer
	err := reg.WritePrometheus(&buf)
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		return fmt.Errorf("writing metrics %s: %w", path, err)
	}
	return nil
}
