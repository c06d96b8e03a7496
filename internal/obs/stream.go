package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// StreamSink is a Tracer that encodes events straight to an io.Writer as
// JSONL, in arrival order, with memory bounded by one encode buffer —
// the one capture path of the CLIs' -trace flags, however long the run
// (DESIGN.md §13). Writes are buffered; call Close before reading the
// output.
//
// Given the same Clock, a StreamSink produces byte-identical output to
// recording the same events in a Recorder and calling WriteJSONL.
type StreamSink struct {
	mu    sync.Mutex
	clock Clock
	bw    *bufio.Writer
	enc   *json.Encoder
	n     int
	err   error
}

// NewStreamSink returns a sink encoding events to w. A nil clock means
// the deterministic LogicalClock, as in NewRecorder.
func NewStreamSink(w io.Writer, clock Clock) *StreamSink {
	if clock == nil {
		clock = &LogicalClock{}
	}
	bw := bufio.NewWriter(w)
	return &StreamSink{clock: clock, bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Tracer. The first encoding error is retained (Close
// returns it) and subsequent events are dropped — a tracer has no error channel, and
// aborting the traced run over a full disk would violate the pure-
// observer contract.
func (s *StreamSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.Ts = s.clock.Now()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(&ev); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Len returns the number of events successfully encoded so far.
func (s *StreamSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Close flushes buffered bytes to the underlying writer and returns the
// first error seen (encoding or flushing). It does not close the
// underlying writer (the sink did not open it).
func (s *StreamSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ReadJSONL decodes a JSONL event stream as written by
// Recorder.WriteJSONL or StreamSink — the load half of the offline trace
// tooling (internal/traceview). Blank lines are skipped; a malformed
// line fails with its 1-based line number. An empty attrs list loads as
// none, the way it is written.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	// Engine events are small, but a soak trace may carry wide attr lists;
	// allow lines up to 4 MiB.
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if len(ev.Attrs) == 0 {
			ev.Attrs = nil
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}
