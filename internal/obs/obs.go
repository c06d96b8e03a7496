// Package obs is the unified observability substrate (DESIGN.md §12):
// a metrics registry with Prometheus text exposition and a deterministic
// snapshot API, plus structured per-round / per-epoch / per-unit engine
// events, captured in memory (Recorder) or streamed as JSONL
// (StreamSink) and converted offline to Chrome trace-event JSON.
//
// obs sits inside the deterministic core, so it obeys the same
// invariants nectar-vet enforces on the engine (DESIGN.md §11): nothing
// in this package reads the wall clock. Timestamps come from an injected
// Clock; the deterministic implementations here (LogicalClock, the
// zero-Ts default) stamp logical time only — round, epoch, and unit
// indices carried by the events themselves are the real time axis.
// Wall-clock Clock implementations live at the process edges (cmd/,
// internal/tcpnet) where real time is in scope.
package obs

import "sync/atomic"

// Clock supplies event timestamps. Implementations in deterministic
// packages must derive Now from logical state only; wall-clock
// implementations belong to the cmd/ and tcpnet edges (see ClockFunc).
type Clock interface {
	// Now returns the current timestamp. The unit is the implementation's
	// to define: LogicalClock counts emitted events, edge clocks
	// typically return microseconds since process start (the unit Chrome
	// trace viewers assume).
	Now() int64
}

// ClockFunc adapts a plain function to a Clock, letting edge binaries
// inject wall time without this package importing it:
//
//	obs.NewRecorder(obs.ClockFunc(func() int64 { return time.Since(start).Microseconds() }))
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// LogicalClock is a deterministic Clock: Now returns 0, 1, 2, ... in
// call order. With the single-goroutine emit discipline of the engine
// (all trace events leave the scheduler goroutine in program order) this
// produces identical timestamp sequences on every run.
type LogicalClock struct {
	n atomic.Int64
}

// Now returns the next tick.
func (c *LogicalClock) Now() int64 { return c.n.Add(1) - 1 }
