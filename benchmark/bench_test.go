package main

import (
	"regexp"
	"sync"
	"testing"
	"time"
)

// opFixture is one op of one workload run both ways on the same input:
// through the public API, and composed from the seams under a probe.
type opFixture struct {
	inputs           []input
	untraced, traced opResult
	probe            *probe
	sample           *msgSample
	opS              float64
}

var fixtures struct {
	once sync.Once
	by   map[string]*opFixture
	err  error
}

func fixture(t *testing.T, name string) *opFixture {
	t.Helper()
	fixtures.once.Do(func() {
		fixtures.by = map[string]*opFixture{}
		for _, w := range workloads {
			f := &opFixture{probe: newProbe()}
			if f.inputs, fixtures.err = w.prepare(1); fixtures.err != nil {
				return
			}
			in := f.inputs[0]
			if f.untraced, fixtures.err = in.run(); fixtures.err != nil {
				return
			}
			gs, _ := in.graphs()
			f.sample = &msgSample{n: gs[0].N(), sigSize: in.sigSize()}
			f.probe.sample = f.sample
			f.probe.op = 0
			t0 := time.Now()
			o := f.probe.begin("op")
			f.traced, fixtures.err = in.compose(f.probe, 1)
			f.probe.end(o)
			f.opS = time.Since(t0).Seconds()
			if fixtures.err != nil {
				return
			}
			fixtures.by[w.name] = f
		}
	})
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	return fixtures.by[name]
}

// The timing proxies must change nothing: the composed, traced op agrees
// with the public-API op on every exact metric and on the result digest.
// A proxy that hid rounds.Quiescer would show here as inflated
// active_rounds.
func TestProxiesChangeNothing(t *testing.T) {
	for _, w := range workloads {
		f := fixture(t, w.name)
		if f.untraced.Fail != "" || f.traced.Fail != "" {
			t.Errorf("%s: op failed its checks: untraced %q, traced %q", w.name, f.untraced.Fail, f.traced.Fail)
		}
		a, b := f.untraced, f.traced
		if a.KB != b.KB || a.KBUnicast != b.KBUnicast || a.ActiveRounds != b.ActiveRounds || a.Accuracy != b.Accuracy || a.Digest != b.Digest {
			t.Errorf("%s: traced op differs from untraced:\n untraced %+v\n traced   %+v", w.name, a, b)
		}
	}
}

// At one worker the spans nest: no span starts before its parent or ends
// after it, and children's busy time sums to no more than the parent's, so
// every self time is non-negative.
func TestSpansNest(t *testing.T) {
	for _, w := range workloads {
		spans := fixture(t, w.name).probe.spans
		if len(spans) < 2 {
			t.Errorf("%s: %d spans", w.name, len(spans))
		}
		children := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.Busy < 0 || sp.End < sp.Start || sp.Busy > sp.End-sp.Start {
				t.Errorf("%s: span %+v has an impossible duration", w.name, sp)
			}
			if sp.Parent < 0 {
				continue
			}
			parent := spans[sp.Parent]
			if sp.Start < parent.Start || sp.End > parent.End {
				t.Errorf("%s: span %+v outside its parent %+v", w.name, sp, parent)
			}
			children[sp.Parent] += sp.Busy
		}
		for id, sum := range children {
			if sum > spans[id].Busy {
				t.Errorf("%s: children of %+v are busy %d ns, more than the span", w.name, spans[id], sum)
			}
		}
	}
}

// The result file and the contract line carry every metric BENCHMARK.json
// declares, under names and counts the contract allows.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	type decl struct{ Name, Unit string }
	var declared struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &declared); err != nil {
		t.Fatal(err)
	}
	if n := len(declared.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented, 2–8 allowed", n, len(workloads))
	}
	if len(declared.EndToEnd) > 16 || len(declared.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared, 16 and 128 allowed", len(declared.EndToEnd), len(declared.PerLayer))
	}

	// One churn-flap probe pass stands in for every workload's: the probes
	// are the same code, and one pair keeps the test short.
	churn := fixture(t, "churn-flap")
	yard, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	once, err := measureOnce(workloadByName("churn-flap"), churn.inputs, churn.sample, 1, yard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(options{seed: 1, workloads: workloads, passes: 1, untraced: true, traced: true,
		pass: func(spec passSpec) (*passReport, error) {
			f := fixture(t, spec.Workload)
			rep := &passReport{GOMAXPROCS: 1, SetupS: f.opS, OpS: []float64{f.opS}, OpCPUS: []float64{f.opS},
				YardS: []float64{yardstickRefS}, AllocBytes: 1, Mallocs: 1, Inputs: make([]*opResult, len(f.inputs))}
			rep.Inputs[0] = &f.untraced
			if spec.Traced {
				rep.Inputs[0] = &f.traced
				rep.Spans, rep.Layers, rep.Once = f.probe.spans, f.probe.counts, once
			}
			return rep, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, wr := range res.Workloads {
		if wr.Name != declared.Workloads[i].Name || !name.MatchString(wr.Name) {
			t.Errorf("workload %d is %q, declared %q", i, wr.Name, declared.Workloads[i].Name)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d failed: %v", wr.Name, wr.Failed, wr.Failures)
		}
		for kind, pair := range map[string]struct {
			got  map[string]metric
			want []decl
		}{"end-to-end": {wr.EndToEnd, declared.EndToEnd}, "per-layer": {wr.PerLayer, declared.PerLayer}} {
			if len(pair.got) != len(pair.want) {
				t.Errorf("%s: %d %s metrics, %d declared", wr.Name, len(pair.got), kind, len(pair.want))
			}
			for _, d := range pair.want {
				m, ok := pair.got[d.Name]
				if !ok || m.Unit != d.Unit || !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
					t.Errorf("%s: %s metric %q [%s]: got %+v, present %v", wr.Name, kind, d.Name, d.Unit, m, ok)
				}
			}
		}
		for _, d := range declared.EndToEnd {
			if wr.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", wr.Name, d.Name)
			}
		}
	}
	// The traced numbers have the predicted shape where the shape is exact.
	layers := func(w string) map[string]metric { return res.Workloads[indexOf(w)].PerLayer }
	if r := layers("drone-hmac")["nectar.lazy_discards"].Value / layers("drone-hmac")["nectar.deliver_calls"].Value; r < 0.8 {
		t.Errorf("drone-hmac: lazy discards are %.2f of deliveries, want ≥ 0.8", r)
	}
	if r := layers("tree-slim")["nectar.lazy_discards"].Value / layers("tree-slim")["nectar.deliver_calls"].Value; r > 0.05 {
		t.Errorf("tree-slim: lazy discards are %.2f of deliveries, want ≤ 0.05", r)
	}
	if layers("churn-flap")["dynamic.flips"].Value < 1 {
		t.Error("churn-flap: no ground-truth flip")
	}
	for _, wr := range res.Workloads {
		if l := wr.PerLayer; l["rounds.self_s"].Value < 0 || l["rounds.run_s"].Value < l["nectar.emit_s"].Value+l["nectar.deliver_s"].Value {
			t.Errorf("%s: rounds.run_s %v < emit %v + deliver %v", wr.Name, l["rounds.run_s"].Value, l["nectar.emit_s"].Value, l["nectar.deliver_s"].Value)
		}
	}
}

func indexOf(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}
