package nectar

import "github.com/nectar-repro/nectar/internal/obs"

// Re-exports of the observability layer (DESIGN.md §12), so callers
// outside the module-internal tree can trace simulations and publish
// metrics.
type (
	// Tracer receives structured engine events; set it on
	// SimulationConfig.Tracer or DynamicConfig.Tracer.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = obs.Event
	// TraceRecorder buffers events in memory for inspection or JSONL
	// export.
	TraceRecorder = obs.Recorder
	// MetricsRegistry holds counters, gauges, and histograms with
	// Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// FastPath groups the fast-path counters embedded in
	// SimulationResult (verify-cache, lazy-discard, decide-cache).
	FastPath = obs.FastPath
)

// NewTraceRecorder returns a recorder stamping events with the
// deterministic logical clock: identical runs produce byte-identical
// JSONL.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder(nil) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
