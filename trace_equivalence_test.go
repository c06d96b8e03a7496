package nectar

// Tracing equivalence properties (DESIGN.md §12): the trace recorder is a
// pure observer — attaching it must not perturb a single output bit, and
// replaying the same scenario must reproduce the same event stream
// byte-for-byte (the events are part of the deterministic surface, like
// the results themselves).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/obs"
)

// TestTraceEquivalenceProperty: across the full behavior × topology
// matrix, a traced run must be byte-identical to an untraced one, and two
// traced runs must serialize to identical JSONL.
func TestTraceEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, tc := range equivalenceCases(t, seed) {
			label := fmt.Sprintf("seed %d %s", seed, tc.name)
			ref, err := Simulate(tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			run := func() (*SimulationResult, *TraceRecorder) {
				cfg := tc.cfg
				rec := NewTraceRecorder()
				cfg.Tracer = rec
				res, err := Simulate(cfg)
				if err != nil {
					t.Fatalf("%s (traced): %v", label, err)
				}
				return res, rec
			}
			got, rec := run()

			assertSimEquivalent(t, label, ref, got)
			if got.FastPath != ref.FastPath {
				t.Errorf("%s: fast-path counters diverge under tracing: got=%+v ref=%+v",
					label, got.FastPath, ref.FastPath)
			}
			if rec.Len() == 0 {
				t.Fatalf("%s: traced run recorded no events", label)
			}

			// The event stream itself is deterministic: structural
			// invariants hold, and a replay serializes identically.
			counts := rec.CountByType()
			if counts[obs.EvRoundStart] != ref.ActiveRounds {
				t.Errorf("%s: %d round_start events, want ActiveRounds=%d",
					label, counts[obs.EvRoundStart], ref.ActiveRounds)
			}
			if counts[obs.EvRoundStart] != counts[obs.EvRoundEnd] {
				t.Errorf("%s: %d round_start vs %d round_end",
					label, counts[obs.EvRoundStart], counts[obs.EvRoundEnd])
			}
			if ref.ActiveRounds < ref.Rounds && counts[obs.EvQuiesce] == 0 {
				t.Errorf("%s: early exit (%d/%d rounds) emitted no quiesce event",
					label, ref.ActiveRounds, ref.Rounds)
			}

			// Evidence-level provenance (DESIGN.md §13) flows whenever a
			// tracer is attached — and, per the byte-equality assertions
			// above, without perturbing results: every correct node's
			// verdict carries a kappa_eval, and the runs above always
			// accept at least some chains and grow reachable sets.
			correct := tc.cfg.Graph.N() - len(tc.cfg.Byzantine)
			if counts[obs.EvKappaEval] != correct {
				t.Errorf("%s: %d kappa_eval events, want one per correct node (%d)",
					label, counts[obs.EvKappaEval], correct)
			}
			if counts[obs.EvChainAccept] == 0 {
				t.Errorf("%s: no chain_accept events", label)
			}
			if counts[obs.EvReachGrow] == 0 {
				t.Errorf("%s: no reach_grow events", label)
			}

			_, rec2 := run()
			var a, b bytes.Buffer
			if err := rec.WriteJSONL(&a); err != nil {
				t.Fatal(err)
			}
			if err := rec2.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s: traced replays serialize differently", label)
			}
		}
	}
}

// TestDynamicTraceEquivalence: the epoch loop's tracing is a pure
// observer too — SimulateDynamic with a recorder attached must reproduce
// the untraced epochs and flips exactly, while emitting one
// epoch_start/epoch_verdict pair per epoch.
func TestDynamicTraceEquivalence(t *testing.T) {
	hg, err := Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched := &EdgeSchedule{Base: hg, Events: []ScheduleEvent{
		{Round: 5, Kind: NodeLeave, Node: 3},
		{Round: 19, Kind: NodeJoin, Node: 3},
	}}
	cfg := DynamicConfig{
		Schedule:   sched,
		T:          2,
		Seed:       11,
		SchemeName: "hmac",
		Byzantine:  map[NodeID]AttackKind{3: AttackAdaptive, 7: AttackPhased},
	}
	ref, err := SimulateDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	rec := NewTraceRecorder()
	traced.Tracer = rec
	got, err := SimulateDynamic(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Epochs, ref.Epochs) {
		t.Error("epochs diverge under tracing")
	}
	if !reflect.DeepEqual(got.Flips, ref.Flips) {
		t.Error("flips diverge under tracing")
	}
	counts := rec.CountByType()
	if counts[obs.EvEpochStart] != len(ref.Epochs) || counts[obs.EvEpochVerdict] != len(ref.Epochs) {
		t.Errorf("epoch events = %d start / %d verdict, want %d each",
			counts[obs.EvEpochStart], counts[obs.EvEpochVerdict], len(ref.Epochs))
	}
	// One kappa_eval per correct, present node per epoch.
	wantEvals := 0
	for _, ep := range ref.Epochs {
		wantEvals += len(ep.Outcomes)
	}
	if counts[obs.EvKappaEval] != wantEvals {
		t.Errorf("%d kappa_eval events, want %d (one per outcome per epoch)",
			counts[obs.EvKappaEval], wantEvals)
	}
}
