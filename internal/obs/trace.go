package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event types emitted by the engine, the dynamic driver, and the
// experiment scheduler. Consumers dispatch on Type; fields that do not
// apply to a type are zero.
const (
	// Engine events (internal/rounds), one scheduler-goroutine source, so
	// their order in a trace is deterministic.
	EvRoundStart = "round_start" // Round
	EvRoundEnd   = "round_end"   // Round, N = bytes sent this round
	EvMsgDeliver = "msg_deliver" // Round, Node = recipient, N = messages delivered
	EvMsgDiscard = "msg_discard" // Round, Attrs = nonedge / loss drop counts
	EvQuiesce    = "quiesce"     // Round = last active round, N = round fast-forwarded to
	EvTopoSwap   = "topo_swap"   // Round = swap round

	// Evidence-level events (DESIGN.md §13): the provenance trail behind a
	// verdict. Emitted by protocol nodes (internal/nectar) into per-node
	// buffers and drained by the engine's scheduler goroutine in ascending
	// node order, so their trace order is deterministic too.
	EvChainAccept = "chain_accept" // Round, Node = acceptor, N = chain hops, Attrs = u / v / from
	EvChainReject = "chain_reject" // Round, Node, Key = reason, N = chain hops (0 if undecodable), Attrs = from
	EvReachGrow   = "reach_grow"   // Round, Node, N = reachable-set size after growth, Attrs = prev
	EvKappaEval   = "kappa_eval"   // Node, Epoch, Key = decision, N = reachable, Attrs = bound / t / over / confirmed

	// Dynamic-driver events (internal/dynamic).
	EvEpochStart   = "epoch_start"   // Epoch, Round = first global round, N = ground-truth kappa
	EvEpochVerdict = "epoch_verdict" // Epoch, Key = decision, Attrs = agreement / truth

	// Experiment-scheduler events (internal/exp).
	EvUnitStart = "unit_start" // Key = spec key, Unit = unit index
	EvUnitDone  = "unit_done"  // Key, Unit, N = elapsed microseconds (wall), Attrs
)

// Attr is one ordered key/value annotation of an Event. A slice of
// attrs (not a map) keeps event encoding deterministic.
type Attr struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// Event is one structured trace record. Time is logical: Round, Epoch,
// Node, and Unit are the indices the deterministic core reasons in; Ts
// is whatever the recorder's Clock supplies (a per-recorder event
// ordinal under the default LogicalClock, wall microseconds at the
// process edges).
type Event struct {
	Ts    int64  `json:"ts"`
	Type  string `json:"type"`
	Round int    `json:"round"`
	Epoch int    `json:"epoch"`
	Node  int    `json:"node"`
	Unit  int    `json:"unit"`
	Key   string `json:"key,omitempty"`
	N     int64  `json:"n"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Tracer receives engine events. Implementations must be safe for
// concurrent use: the engine emits from one goroutine, but the
// experiment scheduler emits from its worker pool. A nil Tracer field
// anywhere in the stack means tracing is off — emit sites are expected
// to check for nil rather than install a no-op.
type Tracer interface {
	Emit(Event)
}

// Recorder is the in-memory Tracer: it stamps events with its Clock and
// buffers them in arrival order for inspection or export as JSONL.
type Recorder struct {
	mu     sync.Mutex
	clock  Clock
	events []Event
}

// NewRecorder returns a Recorder stamping events with clock. A nil
// clock means the deterministic LogicalClock.
func NewRecorder(clock Clock) *Recorder {
	if clock == nil {
		clock = &LogicalClock{}
	}
	return &Recorder{clock: clock}
}

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	ev.Ts = r.clock.Now()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// CountByType tallies recorded events per type (a convenience for tests
// and summaries; the result is a map — sort before printing).
func (r *Recorder) CountByType() map[string]int {
	out := make(map[string]int)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		out[ev.Type]++
	}
	return out
}

// WriteJSONL writes one JSON object per line in arrival order. The
// encoding is deterministic: Event has no map-typed fields, so identical
// event sequences produce identical bytes.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range r.events {
		if err := enc.Encode(&r.events[i]); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto). Args is ordered by construction below.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTraceEvents converts a captured event sequence to a Chrome
// trace-event JSON document, the converter behind `nectar-trace chrome`:
// round/epoch/unit start-end pairs become B/E duration events, everything
// else an instant event. Load the output in chrome://tracing or
// https://ui.perfetto.dev. encoding/json sorts map keys, so output bytes
// are deterministic for a given event sequence.
func WriteChromeTraceEvents(w io.Writer, events []Event) error {
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		ce := chromeEvent{Ts: ev.Ts, Pid: 1, Tid: 1, Ph: "i"}
		switch ev.Type {
		case EvRoundStart:
			ce.Ph, ce.Name = "B", fmt.Sprintf("round %d", ev.Round)
		case EvRoundEnd:
			ce.Ph, ce.Name = "E", fmt.Sprintf("round %d", ev.Round)
			ce.Args = map[string]int64{"bytes": ev.N}
		case EvEpochStart:
			ce.Ph, ce.Name = "B", fmt.Sprintf("epoch %d", ev.Epoch)
			ce.Args = map[string]int64{"kappa": ev.N}
		case EvEpochVerdict:
			ce.Ph, ce.Name = "E", fmt.Sprintf("epoch %d", ev.Epoch)
		case EvUnitStart:
			ce.Ph, ce.Name, ce.Tid = "B", fmt.Sprintf("%s #%d", ev.Key, ev.Unit), 2+ev.Unit
		case EvUnitDone:
			ce.Ph, ce.Name, ce.Tid = "E", fmt.Sprintf("%s #%d", ev.Key, ev.Unit), 2+ev.Unit
		default:
			ce.Name = ev.Type
			if ev.N != 0 {
				ce.Args = map[string]int64{"n": ev.N}
			}
		}
		for _, a := range ev.Attrs {
			if ce.Args == nil {
				ce.Args = make(map[string]int64, len(ev.Attrs))
			}
			ce.Args[a.K] = a.V
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
