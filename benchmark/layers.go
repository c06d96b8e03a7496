package main

import (
	"math"
	"strings"
)

// perLayer lists the per-layer metrics in print order; the layer is the
// module name before the dot. Every workload reports every name — 0 where
// the layer is not on the workload's path (README.md says which). Sums
// are per traced op.
var perLayer = []metricDef{
	{"topology.gen_s", "s"},
	{"sig.keygen_s", "s"}, {"sig.sign_calls", "count"}, {"sig.sign_s", "s"},
	{"sig.verify_calls", "count"}, {"sig.verify_s", "s"}, {"sig.verify_hit_ratio", "ratio"},
	{"nectar.build_s", "s"},
	{"nectar.emit_calls", "count"}, {"nectar.emit_s", "s"}, {"nectar.emit_self_s", "s"},
	{"nectar.deliver_calls", "count"}, {"nectar.deliver_s", "s"}, {"nectar.deliver_self_s", "s"},
	{"nectar.accepted", "count"}, {"nectar.duplicates", "count"}, {"nectar.rejected", "count"},
	{"nectar.lazy_discards", "count"}, {"nectar.accept_ratio", "ratio"},
	{"nectar.decide_s", "s"}, {"nectar.decide_cache_hits", "count"},
	{"nectar.header_decode_ns", "ns"}, {"nectar.full_decode_ns", "ns"}, {"nectar.encode_ns", "ns"},
	{"nectar.msg_bytes_mean", "bytes"}, {"nectar.hops_mean", "count"},
	{"rounds.run_s", "s"}, {"rounds.self_s", "s"}, {"rounds.self_ns_per_msg", "ns"},
	{"rounds.msgs_sent", "count"}, {"rounds.msgs_delivered", "count"}, {"rounds.bytes_sent", "bytes"},
	{"rounds.active_rounds", "rounds"}, {"rounds.horizon", "rounds"}, {"rounds.parallel_speedup", "ratio"},
	{"graph.kappa_s", "s"}, {"graph.partitionable_s", "s"}, {"graph.kappa_mean", "count"},
	{"dynamic.run_s", "s"}, {"dynamic.build_s", "s"}, {"dynamic.finish_s", "s"}, {"dynamic.self_s", "s"},
	{"dynamic.epochs", "count"}, {"dynamic.flips", "count"}, {"dynamic.detected", "count"},
	{"dynamic.latency_epochs_mean", "epochs"}, {"dynamic.kappa_exact_evals", "count"},
	{"exp.execute_s", "s"}, {"exp.units", "count"}, {"exp.unit_busy_s", "s"},
	{"exp.overhead_s", "s"}, {"exp.utilization", "ratio"},
	{"harness.unit_s_nectar", "s"}, {"harness.unit_s_mtg", "s"}, {"harness.unit_s_mtgv2", "s"},
	{"mtg.accuracy", "ratio"}, {"mtgv2.accuracy", "ratio"}, {"mtg.kb_per_node", "KB"}, {"mtgv2.kb_per_node", "KB"},
	{"obs.events", "count"}, {"obs.tracer_on_ratio", "ratio"},
	{"tcpnet.frame_rt_us", "us"}, {"tcpnet.frame_mb_per_s", "MB/s"},
	{"bench.yardstick_ms", "ms"}, {"bench.span_cost_ns", "ns"}, {"bench.trace_overhead_ratio", "ratio"}, {"bench.peak_rss_mb", "MB"},
	{"bench.op_s_p75", "s"}, {"bench.samples", "count"}, {"bench.gomaxprocs", "count"},
}

// spanSums totals the spans of all traced passes by name, and by name
// under a parent of a given name, each pass's durations scaled to the
// reference speed by its median yardstick reading.
type spanSums struct {
	busy, calls           map[string]float64
	busyUnder, callsUnder map[[2]string]float64
	unitS                 map[string][]float64 // harness.unit.* durations
}

func sumSpans(reports []*passReport) spanSums {
	s := spanSums{map[string]float64{}, map[string]float64{}, map[[2]string]float64{}, map[[2]string]float64{}, map[string][]float64{}}
	for _, rep := range reports {
		spans, yard := rep.Spans, median(rep.YardS)
		for _, sp := range spans {
			sp.Busy = int64(atRef(float64(sp.Busy), yard))
			s.busy[sp.Name] += float64(sp.Busy)
			s.calls[sp.Name] += float64(sp.Calls)
			if sp.Parent >= 0 {
				k := [2]string{sp.Name, spans[sp.Parent].Name}
				s.busyUnder[k] += float64(sp.Busy)
				s.callsUnder[k] += float64(sp.Calls)
			}
			if strings.HasPrefix(sp.Name, "harness.unit.") {
				s.unitS[sp.Name] = append(s.unitS[sp.Name], float64(sp.Busy)/1e9)
			}
		}
	}
	return s
}

// perLayerMetrics folds the traced passes into the per-layer metrics.
//
// Clock cost: a leaf call reads the clock twice. About one read (c, the
// calibrated bench.span_cost_ns) falls inside the call's own window and
// about one outside it, inside its parent's. So a leaf's time is its
// windows minus c per call, and a span's time is its window minus 2c for
// every leaf call below it; self times follow by subtraction.
func perLayerMetrics(reports []*passReport) map[string]metric {
	var ops, yards []float64
	counts := map[string]float64{}
	var rss float64
	for _, rep := range reports {
		wall, _ := rep.opsAtRef()
		ops, yards = append(ops, wall...), append(yards, rep.YardS...)
		for k, v := range rep.Layers {
			counts[k] += v
		}
		rss = math.Max(rss, rep.MaxRSSMB)
	}
	once := reports[0].Once
	s := sumSpans(reports)
	nOps := float64(len(ops))
	c := atRef(once["bench.span_cost_ns"], median(yards)) // the spans are at reference speed
	sec := func(ns float64) float64 { return math.Max(ns, 0) / 1e9 / nOps }
	under := func(name, parent string) (busy, calls float64) {
		k := [2]string{name, parent}
		return s.busyUnder[k], s.callsUnder[k]
	}

	signEmitBusy, signEmitCalls := under("sig.sign", "nectar.emit")
	verDelBusy, verDelCalls := under("sig.verify", "nectar.deliver")
	emitCalls, deliverCalls := s.calls["nectar.emit"], s.calls["nectar.deliver"]
	emitNs := s.busy["nectar.emit"] - c*emitCalls - 2*c*signEmitCalls
	deliverNs := s.busy["nectar.deliver"] - c*deliverCalls - 2*c*verDelCalls
	leafCalls := emitCalls + deliverCalls + signEmitCalls + verDelCalls
	runNs := s.busy["rounds.run"] - 2*c*leafCalls
	selfNs := runNs - math.Max(emitNs, 0) - math.Max(deliverNs, 0)
	dynNs := s.busy["dynamic.run"] - 2*c*(leafCalls+s.calls["sig.sign"]-signEmitCalls+s.calls["sig.verify"]-verDelCalls)

	v := map[string]float64{
		"topology.gen_s": s.busy["topology.gen"] / 1e9 / float64(len(reports)),

		"sig.keygen_s":     sec(s.busy["sig.keygen"]),
		"sig.sign_calls":   s.calls["sig.sign"] / nOps,
		"sig.sign_s":       sec(s.busy["sig.sign"] - c*s.calls["sig.sign"]),
		"sig.verify_calls": s.calls["sig.verify"] / nOps,
		"sig.verify_s":     sec(s.busy["sig.verify"] - c*s.calls["sig.verify"]),

		"nectar.build_s":         sec(s.busy["nectar.build"]),
		"nectar.emit_calls":      emitCalls / nOps,
		"nectar.emit_s":          sec(emitNs),
		"nectar.emit_self_s":     sec(emitNs - (signEmitBusy - c*signEmitCalls)),
		"nectar.deliver_calls":   deliverCalls / nOps,
		"nectar.deliver_s":       sec(deliverNs),
		"nectar.deliver_self_s":  sec(deliverNs - (verDelBusy - c*verDelCalls)),
		"nectar.decide_s":        sec(s.busy["nectar.decide"]),
		"rounds.run_s":           sec(runNs),
		"rounds.self_s":          sec(selfNs),
		"rounds.self_ns_per_msg": ratio(math.Max(selfNs, 0), counts["rounds.msgs_delivered"]),

		"dynamic.run_s":    sec(dynNs),
		"dynamic.build_s":  sec(s.busy["dynamic.build"]),
		"dynamic.finish_s": sec(s.busy["dynamic.finish"]),
		"dynamic.self_s": sec(dynNs - s.busy["dynamic.build"] - s.busy["dynamic.finish"] -
			math.Max(emitNs, 0) - math.Max(deliverNs, 0)),
		"dynamic.latency_epochs_mean": ratio(counts["dynamic.latency_epochs_sum"], counts["dynamic.detected"]),

		"exp.execute_s":   sec(s.busy["exp.execute"]),
		"exp.unit_busy_s": sec(s.busy["harness.unit.nectar"] + s.busy["harness.unit.mtg"] + s.busy["harness.unit.mtgv2"]),
		"exp.overhead_s": sec(s.busy["exp.execute"] - s.busy["harness.unit.nectar"] -
			s.busy["harness.unit.mtg"] - s.busy["harness.unit.mtgv2"]),
		"harness.unit_s_nectar": median(s.unitS["harness.unit.nectar"]),
		"harness.unit_s_mtg":    median(s.unitS["harness.unit.mtg"]),
		"harness.unit_s_mtgv2":  median(s.unitS["harness.unit.mtgv2"]),

		"sig.verify_hit_ratio": ratio(counts["sig.verify_hits"], counts["sig.verify_hits"]+counts["sig.verify_misses"]),
		"nectar.accept_ratio":  ratio(counts["nectar.accepted"], deliverCalls),

		"bench.yardstick_ms": 1000 * median(yards),
		"bench.peak_rss_mb":  rss,
		"bench.op_s_p75":     quantile(ops, 0.75),
		"bench.samples":      nOps,
		"bench.gomaxprocs":   float64(reports[0].GOMAXPROCS),
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		val, ok := v[d.name]
		if !ok {
			if val, ok = once[d.name]; !ok {
				val = counts[d.name] / nOps // a counter summed over the traced ops
			}
		}
		out[d.name] = metric{val, d.unit}
	}
	return out
}

// ratio is a ÷ b, 0 when the layer was not exercised.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
