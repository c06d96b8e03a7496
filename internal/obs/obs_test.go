package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // clamped: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("test_total", "other help"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := reg.Gauge("depth", "help")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind collision")
		}
	}()
	reg.Gauge("x", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on invalid name")
		}
	}()
	reg.Counter("bad name", "")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "help", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.1, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 2.65 {
		t.Fatalf("sum = %v, want 2.65", got)
	}
	samples := reg.Snapshot()
	want := map[string]float64{
		`lat_seconds_bucket{le="0.1"}`:  2, // 0.05 and the boundary value 0.1
		`lat_seconds_bucket{le="1"}`:    3,
		`lat_seconds_bucket{le="+Inf"}`: 4,
		"lat_seconds_sum":               2.65,
		"lat_seconds_count":             4,
	}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d: %v", len(samples), len(want), samples)
	}
	for _, s := range samples {
		if want[s.Name] != s.Value {
			t.Errorf("%s = %v, want %v", s.Name, s.Value, want[s.Name])
		}
	}
}

func TestSnapshotAndPrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Register in different orders; exposition must not care.
		reg.Gauge("b_gauge", "gauge b").Set(2)
		reg.Counter("a_total", "counter a").Add(3)
		reg.Histogram("c_seconds", "hist c", []float64{1}).Observe(0.5)
		return reg
	}
	var first string
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := build().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("exposition differs across runs:\n%s\nvs\n%s", first, buf.String())
		}
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE b_gauge gauge",
		"b_gauge 2",
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="1"} 1`,
		`c_seconds_bucket{le="+Inf"} 1`,
		"c_seconds_sum 0.5",
		"c_seconds_count 1",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("exposition missing %q:\n%s", want, first)
		}
	}
	// Families must come out name-sorted.
	if ai, bi := strings.Index(first, "a_total"), strings.Index(first, "b_gauge"); ai > bi {
		t.Errorf("families not sorted:\n%s", first)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("shared_total", "").Inc()
				reg.Histogram("shared_seconds", "", DefBuckets).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("shared_seconds", "", DefBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestLogicalClockSequential(t *testing.T) {
	var c LogicalClock
	for want := int64(0); want < 5; want++ {
		if got := c.Now(); got != want {
			t.Fatalf("tick = %d, want %d", got, want)
		}
	}
}

func TestRecorderJSONLDeterministic(t *testing.T) {
	record := func() string {
		rec := NewRecorder(nil)
		rec.Emit(Event{Type: EvRoundStart, Round: 0})
		rec.Emit(Event{Type: EvMsgDeliver, Round: 0, Node: 3, N: 2})
		rec.Emit(Event{Type: EvMsgDiscard, Round: 0, Attrs: []Attr{{K: "nonedge", V: 1}, {K: "loss", V: 0}}})
		rec.Emit(Event{Type: EvRoundEnd, Round: 0, N: 128})
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := record(), record()
	if a != b {
		t.Fatalf("JSONL differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ts != 1 || ev.Type != EvMsgDeliver || ev.Node != 3 || ev.N != 2 {
		t.Fatalf("round-tripped event = %+v", ev)
	}
}

func TestRecorderChromeTrace(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Emit(Event{Type: EvRoundStart, Round: 7})
	rec.Emit(Event{Type: EvQuiesce, Round: 7, N: 40})
	rec.Emit(Event{Type: EvRoundEnd, Round: 7, N: 64})
	rec.Emit(Event{Type: EvUnitStart, Key: "fig3", Unit: 2})
	rec.Emit(Event{Type: EvUnitDone, Key: "fig3", Unit: 2, N: 1500})
	var buf bytes.Buffer
	if err := WriteChromeTraceEvents(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Tid  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "B" || doc.TraceEvents[0].Name != "round 7" {
		t.Fatalf("round_start mapped to %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Ph != "i" || doc.TraceEvents[1].Args["n"] != 40 {
		t.Fatalf("quiesce mapped to %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[2].Ph != "E" || doc.TraceEvents[2].Args["bytes"] != 64 {
		t.Fatalf("round_end mapped to %+v", doc.TraceEvents[2])
	}
	if doc.TraceEvents[3].Tid != 4 || doc.TraceEvents[4].Ph != "E" {
		t.Fatalf("unit events mapped to %+v / %+v", doc.TraceEvents[3], doc.TraceEvents[4])
	}
}

func TestFastPathJSONStaysFlatWhenEmbedded(t *testing.T) {
	// SimulationResult and Trial embed FastPath; encoding either puts the
	// counters at the top level, beside the host's own fields.
	type host struct {
		Name string
		FastPath
	}
	b, err := json.Marshal(host{Name: "x", FastPath: FastPath{LazyDiscards: 9}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, nested := m["FastPath"]; nested {
		t.Fatalf("FastPath nested instead of flattened: %s", b)
	}
	if m["lazy_discards"] != float64(9) {
		t.Fatalf("lazy_discards not promoted: %s", b)
	}
}

func TestAdminMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("nectar_node_rounds_completed_total", "").Add(12)
	status := "ok"
	mux := NewAdminMux(reg, func() Health {
		return Health{Status: status, Detail: []Attr{{K: "round", V: 12}}}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"round"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	status = "degraded"
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", code)
	}

	code, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "nectar_node_rounds_completed_total 12") {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
