package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/nectar-repro/nectar/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in print order. BENCHMARK.json
// carries the same names with their bounds; bench_test.go keeps the two in
// step.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"op_s_p50", "s"}, {"ops_per_s", "1/s"}, {"cpu_s_per_op", "s"},
	{"kb_per_node", "KB"}, {"kb_per_node_unicast", "KB"}, {"active_rounds", "rounds"},
	{"accuracy", "ratio"}, {"ok_share", "ratio"}, {"alloc_mb_per_op", "MB"}, {"allocs_per_op", "count"},
}

// exactMetrics are pure functions of the inputs: two runs of one commit
// with one seed must agree on them to the last digit.
var exactMetrics = map[string]bool{
	"kb_per_node": true, "kb_per_node_unicast": true, "active_rounds": true, "accuracy": true, "ok_share": true,
}

// workloadResult is one workload's part of the result file.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   int               `json:"samples,omitempty"`
	OpSP75    float64           `json:"op_s_p75,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// result is the file -out names.
type result struct {
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Passes     int               `json:"passes"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

// tracedPasses is fixed: the traced run exists to apportion time, not to
// time, so it gets two passes and a quarter of the measuring time.
const tracedPasses = 2

type options struct {
	seed      int64
	workloads []*workload
	passes    int
	seconds   int
	untraced  bool // measure the end-to-end metrics
	traced    bool // measure the per-layer metrics
	outDir    string
	// pass runs one pass; the driver spawns a child process, tests call
	// runPass in-process.
	pass func(passSpec) (*passReport, error)
}

// spawnPass runs one pass in a fresh child process of this binary and
// waits for it. Nothing else runs meanwhile: one child at a time.
func spawnPass(spec passSpec) (*passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A pass is a few seconds; the cap only keeps a hung child from
	// outliving the driver's own time limit.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", spec.Workload, "-seed", strconv.FormatInt(spec.Seed, 10),
		"-pass", strconv.Itoa(spec.Pass), "-passes", strconv.Itoa(spec.Passes),
		"-budget", spec.Budget.String(),
		"-traced="+strconv.FormatBool(spec.Traced))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", spec.Workload, spec.Pass, err)
	}
	rep := &passReport{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("%s pass %d: reading the child's report: %w", spec.Workload, spec.Pass, err)
	}
	return rep, nil
}

// measure runs the passes — workloads interleaved A B C A B C …, so that
// slow drift on the host lands on all of them alike — and aggregates.
func measure(o options) (*result, error) {
	res := &result{Seed: o.seed, Seconds: o.seconds, Passes: o.passes}
	for _, w := range o.workloads {
		res.Workloads = append(res.Workloads, &workloadResult{Name: w.name})
	}
	run := func(passes int, budget time.Duration, traced bool) ([][]*passReport, error) {
		reports := make([][]*passReport, len(o.workloads))
		for pass := 0; pass < passes; pass++ {
			for i, w := range o.workloads {
				rep, err := o.pass(passSpec{Workload: w.name, Seed: o.seed, Pass: pass, Passes: passes,
					Budget: budget, Traced: traced})
				if err != nil {
					return nil, err
				}
				res.GOMAXPROCS = rep.GOMAXPROCS
				reports[i] = append(reports[i], rep)
			}
		}
		return reports, nil
	}
	total := time.Duration(o.seconds) * time.Second
	if o.untraced {
		reports, err := run(o.passes, total/time.Duration(o.passes), false)
		if err != nil {
			return nil, err
		}
		for i, wr := range res.Workloads {
			wr.EndToEnd = endToEndMetrics(wr, reports[i])
		}
	}
	if o.traced {
		reports, err := run(tracedPasses, total/4/tracedPasses, true)
		if err != nil {
			return nil, err
		}
		for i, wr := range res.Workloads {
			var spans [][]span
			for _, rep := range reports[i] {
				spans = append(spans, rep.Spans)
			}
			checkPasses(wr, reports[i])
			wr.PerLayer = perLayerMetrics(reports[i])
			if o.outDir != "" {
				cost := wr.PerLayer["bench.span_cost_ns"].Value
				if err := writeTrace(o.outDir, wr.Name, o.seed, cost, spans); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// checkPasses counts the passes' ops and failures into wr, and fails every
// input whose result differs between passes: fresh processes must agree.
// It returns the first pass's result per input.
func checkPasses(wr *workloadResult, reports []*passReport) []*opResult {
	inputs := make([]*opResult, len(reports[0].Inputs))
	for pass, rep := range reports {
		wr.Attempted += len(rep.OpS)
		wr.Failed += rep.Failed
		for _, f := range rep.Failures {
			wr.Failures = append(wr.Failures, fmt.Sprintf("pass %d %s", pass, f))
		}
		for i, in := range rep.Inputs {
			switch {
			case in == nil:
			case inputs[i] == nil:
				inputs[i] = in
			case in.Digest != inputs[i].Digest:
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("pass %d input %d: result differs from an earlier pass", pass, i))
			}
		}
	}
	return inputs
}

// opsAtRef returns a pass's op wall and CPU times scaled to the reference
// speed.
func (rep *passReport) opsAtRef() (wall, cpu []float64) {
	y := median(rep.YardS)
	for i := range rep.OpS {
		wall, cpu = append(wall, atRef(rep.OpS[i], y)), append(cpu, atRef(rep.OpCPUS[i], y))
	}
	return wall, cpu
}

func endToEndMetrics(wr *workloadResult, reports []*passReport) map[string]metric {
	inputs := checkPasses(wr, reports)
	var setups, ops, cpus []float64
	var alloc, mallocs float64
	for _, rep := range reports {
		setups = append(setups, atRef(rep.SetupS, median(rep.YardS)))
		wall, cpu := rep.opsAtRef()
		ops, cpus = append(ops, wall...), append(cpus, cpu...)
		alloc += float64(rep.AllocBytes)
		mallocs += float64(rep.Mallocs)
	}
	var exact opResult
	covered := 0.0
	for _, in := range inputs {
		if in == nil {
			continue
		}
		covered++
		exact.KB += in.KB
		exact.KBUnicast += in.KBUnicast
		exact.ActiveRounds += in.ActiveRounds
		exact.Accuracy += in.Accuracy
	}
	wr.Samples, wr.OpSP75 = len(ops), quantile(ops, 0.75)
	values := map[string]float64{
		"setup_s":             median(setups),
		"op_s_p50":            median(ops),
		"ops_per_s":           1 / stats.Mean(ops),
		"cpu_s_per_op":        stats.Mean(cpus),
		"kb_per_node":         exact.KB / covered,
		"kb_per_node_unicast": exact.KBUnicast / covered,
		"active_rounds":       exact.ActiveRounds / covered,
		"accuracy":            exact.Accuracy / covered,
		"ok_share":            1 - float64(wr.Failed)/float64(wr.Attempted),
		"alloc_mb_per_op":     alloc / float64(len(ops)) / 1e6,
		"allocs_per_op":       mallocs / float64(len(ops)),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	SpanCostNs float64 `json:"span_cost_ns"`
	// Passes holds each traced pass's spans; span IDs are per pass.
	Passes [][]span `json:"passes"`
}

func writeTrace(dir, name string, seed int64, cost float64, spans [][]span) error {
	return writeJSON(filepath.Join(dir, "trace-"+name+".json"), traceFile{name, seed, cost, spans})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// print writes every metric by name and unit, one workload per block.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %d s per workload in %d passes, GOMAXPROCS %d\n", r.Seed, r.Seconds, r.Passes, r.GOMAXPROCS)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, d := range endToEnd {
			m, ok := wr.EndToEnd[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.6g %s", d.name, m.Value, m.Unit)
			if d.name == "op_s_p50" {
				fmt.Fprintf(w, "   (p75 %.6g s, %d samples)", wr.OpSP75, wr.Samples)
			}
			fmt.Fprintln(w)
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

// contractLine is the last line of standard output when one workload was
// measured one way: the form the benchmark contract reads.
func (wr *workloadResult) contractLine() string {
	metrics := wr.EndToEnd
	if metrics == nil {
		metrics = wr.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	return string(line)
}
