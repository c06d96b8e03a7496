package nectar

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestDynamicWorkersEquivalenceProperty pins a dynamic run across
// parallelism budgets (DESIGN.md §7): DynamicConfig.Workers decides how
// many epochs are in flight and how many workers each engine gets, and
// nothing else. Every result — per-epoch outcomes, traffic, round
// accounting and ground truth, the flips — must equal the budget-1 run's,
// and a traced run's JSONL must equal the budget-1 trace byte for byte
// (tracing keeps one epoch in flight; the budget then only moves engine
// workers).
func TestDynamicWorkersEquivalenceProperty(t *testing.T) {
	const n, tByz, epochs = 10, 2, 5
	const horizon = epochs * (n - 1)
	base, err := Harary(5, n)
	if err != nil {
		t.Fatal(err)
	}
	must := func(s *EdgeSchedule, err error) *EdgeSchedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	schedules := []struct {
		name  string
		sched *EdgeSchedule
	}{
		{"flapping", must(FlappingSchedule(base, 0.05, 0.3, horizon, rand.New(rand.NewSource(3))))},
		{"churn", must(PoissonChurnSchedule(base, 0.03, 9, horizon, rand.New(rand.NewSource(2))))},
		{"partition-heal", must(PartitionHealSchedule(base, 2*(n-1)+1, 4*(n-1)+1))},
		{"drone", must(DroneMobilitySchedule(MobilityConfig{
			N: n, Radius: 1.8, StepRounds: n - 1, Steps: epochs - 1, Distance: LinearDrift(0, 0.8),
		}, rand.New(rand.NewSource(9))))},
	}
	attacks := []struct {
		name string
		byz  map[NodeID]AttackKind
	}{
		{"clean", nil},
		{"equivocate", map[NodeID]AttackKind{3: AttackEquivocate}},
		{"adaptive", map[NodeID]AttackKind{1: AttackAdaptive, 6: AttackAdaptive}},
	}
	run := func(cfg DynamicConfig, traced bool) (*DynamicResult, []byte) {
		t.Helper()
		var rec *TraceRecorder
		if traced {
			rec = NewTraceRecorder()
			cfg.Tracer = rec
		}
		res, err := SimulateDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !traced {
			return res, nil
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	sawAbsent := false
	for _, sc := range schedules {
		for _, at := range attacks {
			name := fmt.Sprintf("%s/%s", sc.name, at.name)
			cfg := DynamicConfig{
				Schedule: sc.sched, T: tByz, Seed: 7, SchemeName: "hmac", Epochs: epochs,
				Byzantine: at.byz, Workers: 1,
			}
			want, _ := run(cfg, false)
			wantTraced, wantJSONL := run(cfg, true)
			if !reflect.DeepEqual(wantTraced, want) {
				t.Errorf("%s: budget-1 result moves under tracing", name)
			}
			for _, ep := range want.Epochs {
				sawAbsent = sawAbsent || (sc.name == "churn" && len(ep.Absent) > 0)
			}
			for _, workers := range []int{2, 3, 8, 64} { // 64 > epochs: every epoch in flight and parallel engines on top
				cfg.Workers = workers
				got, _ := run(cfg, false)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Workers=%d result differs from Workers=1:%s", name, workers, dynamicDiff(got, want))
				}
				if workers != 2 && workers != 64 {
					continue // traced runs keep one epoch in flight: the ends of the engine-worker range suffice
				}
				gotTraced, gotJSONL := run(cfg, true)
				if !reflect.DeepEqual(gotTraced, want) {
					t.Errorf("%s: traced Workers=%d result differs from Workers=1", name, workers)
				}
				if !bytes.Equal(gotJSONL, wantJSONL) {
					t.Errorf("%s: Workers=%d trace (%d bytes) differs from the Workers=1 trace (%d bytes)",
						name, workers, len(gotJSONL), len(wantJSONL))
				}
			}
		}
	}
	if !sawAbsent {
		t.Error("the churn schedule never had a node absent at an epoch start; pick another seed")
	}
}

// dynamicDiff names the first place two dynamic results part ways.
func dynamicDiff(got, want *DynamicResult) string {
	if len(got.Epochs) != len(want.Epochs) {
		return fmt.Sprintf(" %d epochs, want %d", len(got.Epochs), len(want.Epochs))
	}
	for e := range want.Epochs {
		if !reflect.DeepEqual(got.Epochs[e], want.Epochs[e]) {
			return fmt.Sprintf(" epoch %d\n got %+v\nwant %+v", e, got.Epochs[e], want.Epochs[e])
		}
	}
	if !reflect.DeepEqual(got.Flips, want.Flips) {
		return fmt.Sprintf(" flips %+v, want %+v", got.Flips, want.Flips)
	}
	return fmt.Sprintf(" EpochRounds %d, want %d", got.EpochRounds, want.EpochRounds)
}
