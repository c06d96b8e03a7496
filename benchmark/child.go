package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	nectar "github.com/nectar-repro/nectar"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/tcpnet"
)

// passSpec is what the driver asks of one child process: one pass of one
// workload. It travels as the child's flags.
type passSpec struct {
	Workload string
	Seed     int64
	Pass     int
	Passes   int
	// Budget is the pass's share of the measuring time; the timed loop
	// runs until it is spent and every input of the cycle has run once.
	Budget time.Duration
	Traced bool
}

// passReport is what the child prints back, as one JSON object.
type passReport struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	SetupS     float64   `json:"setup_s"`
	OpS        []float64 `json:"op_s"`
	OpCPUS     []float64 `json:"op_cpu_s"`
	// YardS[i] is the yardstick's reading after timed op i.
	YardS      []float64 `json:"yard_s"`
	AllocBytes uint64    `json:"alloc_bytes"`
	Mallocs    uint64    `json:"mallocs"`
	// Inputs[i] is the first result of cycle input i, nil if no timed op
	// of this pass ran it.
	Inputs   []*opResult `json:"inputs"`
	Failed   int         `json:"failed"`
	Failures []string    `json:"failures,omitempty"`
	MaxRSSMB float64     `json:"max_rss_mb"`
	// Traced passes only: the spans, the per-layer sums over this pass's
	// ops, and the figures measured once per pass.
	Spans  []span             `json:"spans,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Once   map[string]float64 `json:"once,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPass is the child: build the inputs, run one untimed warm-up op, then
// the pass's timed ops. started is when the process began, so that set-up
// covers everything a fresh process pays before its first timed op.
func runPass(spec passSpec, started time.Time) (*passReport, error) {
	w := workloadByName(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	rep := &passReport{GOMAXPROCS: procs}

	var p *probe
	if spec.Traced {
		p = newProbe()
	}
	g := p.begin("topology.gen")
	inputs, err := w.prepare(spec.Seed)
	p.end(g)
	if err != nil {
		return nil, err
	}
	// Passes start at staggered cycle offsets, so short passes together
	// still weigh every input alike.
	offset := spec.Pass * len(inputs) / spec.Passes
	op := func(i int) (opResult, error) {
		in := inputs[(offset+max(i, 0))%len(inputs)] // the warm-up is op -1
		if !spec.Traced {
			return in.run()
		}
		p.op = i
		o := p.begin("op")
		res, err := in.compose(p, 1)
		p.end(o)
		return res, err
	}
	if _, err := op(-1); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	var sample *msgSample
	if spec.Traced {
		p.spans = p.spans[:1] // keep topology.gen, drop the warm-up op
		p.counts = map[string]float64{}
		// The first timed op also feeds the message sample.
		first := inputs[offset%len(inputs)]
		gs, _ := first.graphs()
		sample = &msgSample{n: gs[0].N(), sigSize: first.sigSize()}
		p.sample = sample
	}
	rep.SetupS = time.Since(started).Seconds()
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}

	rep.Inputs = make([]*opResult, len(inputs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < len(inputs) || time.Since(t0) < spec.Budget; i++ {
		cpu, ts := cpuSeconds(), time.Now()
		res, err := op(i)
		rep.OpS, rep.OpCPUS = append(rep.OpS, time.Since(ts).Seconds()), append(rep.OpCPUS, cpuSeconds()-cpu)
		rep.YardS = append(rep.YardS, yard.run())
		if p != nil {
			p.sample = nil
		}
		slot := &rep.Inputs[(offset+i)%len(inputs)]
		switch {
		case err != nil:
			res.Fail = err.Error()
		case *slot != nil && res.Fail == "" && res.Digest != (*slot).Digest:
			res.Fail = "result differs from the first op on the same input"
		}
		if *slot == nil {
			r := res
			*slot = &r
		}
		if res.Fail != "" {
			rep.Failed++
			if len(rep.Failures) < 5 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %s", i, res.Fail))
			}
		}
	}
	runtime.ReadMemStats(&m1)
	rep.AllocBytes, rep.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	rep.MaxRSSMB = maxRSSMB()

	if spec.Traced {
		rep.Spans = p.spans
		rep.Layers = p.counts
		if spec.Pass == 0 {
			rep.Once, err = measureOnce(w, inputs, sample, 5, yard)
			if err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// measureOnce takes the per-layer figures that are not sums over traced
// ops: the instrument's own cost, proxy-free A/B ratios, codec and frame
// timings on the sampled messages, and the graph-layer probes.
//
// Each A/B ratio is a quotient of medians over `pairs` interleaved runs.
func measureOnce(w *workload, inputs []input, sample *msgSample, pairs int, yard *yardstick) (map[string]float64, error) {
	yards := []float64{yard.run()}
	once := map[string]float64{"bench.span_cost_ns": spanCostNs()}

	// Graph layer: the ground truth every op is scored against.
	var kappaSum, graphs float64
	for _, in := range inputs {
		gs, t := in.graphs()
		for _, g := range gs {
			t0 := time.Now()
			k := g.Connectivity()
			once["graph.kappa_s"] += time.Since(t0).Seconds()
			t0 = time.Now()
			g.IsTByzPartitionable(t)
			once["graph.partitionable_s"] += time.Since(t0).Seconds()
			kappaSum += float64(k)
			graphs++
		}
	}
	once["graph.kappa_s"] /= float64(len(inputs))
	once["graph.partitionable_s"] /= float64(len(inputs))
	once["graph.kappa_mean"] = kappaSum / graphs

	// Interleaved A/B runs of the composed op: under a scratch probe and
	// proxy-free at one worker (the instrument's own cost), and proxy-free
	// at one worker and at all of them (what parallelism buys).
	var traced, wall1, run1, run0, util []float64
	for i := 0; i < pairs; i++ {
		in := inputs[i%len(inputs)]
		t0 := time.Now()
		if _, err := in.compose(newProbe(), 1); err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(t0).Seconds())
		t0 = time.Now()
		one, err := in.compose(nil, 1)
		if err != nil {
			return nil, err
		}
		wall1 = append(wall1, time.Since(t0).Seconds())
		all, err := in.compose(nil, 0)
		if err != nil {
			return nil, err
		}
		run1, run0, util = append(run1, one.runS), append(run0, all.runS), append(util, all.utilization)
	}
	once["bench.trace_overhead_ratio"] = median(traced) / median(wall1)
	if median(run0) > 0 {
		once["rounds.parallel_speedup"] = median(run1) / median(run0)
	}
	once["exp.utilization"] = median(util)

	yards = append(yards, yard.run())
	if len(sample.msgs) > 0 {
		codecProbe(once, sample)
	}
	// Durations read at the host's speed during these probes; ratios and
	// the loopback frame probe, which waits on the kernel, stay as read.
	yards = append(yards, yard.run())
	for _, name := range []string{"graph.kappa_s", "graph.partitionable_s",
		"nectar.header_decode_ns", "nectar.full_decode_ns", "nectar.encode_ns"} {
		once[name] = atRef(once[name], median(yards))
	}
	if w.wireProbes {
		// The obs layer's own cost: the same op with a recorder attached.
		in := inputs[0].(*simInput)
		cfg := nectar.SimulationConfig{Graph: in.g, T: in.t, Seed: in.seed, SchemeName: in.scheme, Workers: in.workers}
		var on, off []float64
		var rec *obs.Recorder
		for i := 0; i < pairs; i++ {
			for _, traced := range []bool{true, false} {
				c := cfg
				if traced {
					rec = obs.NewRecorder(nil)
					c.Tracer = rec
				}
				t0 := time.Now()
				if _, err := nectar.Simulate(c); err != nil {
					return nil, err
				}
				if traced {
					on = append(on, time.Since(t0).Seconds())
				} else {
					off = append(off, time.Since(t0).Seconds())
				}
			}
		}
		once["obs.tracer_on_ratio"] = median(on) / median(off)
		once["obs.events"] = float64(rec.Len())
		if err := frameProbe(once, int(once["nectar.msg_bytes_mean"])); err != nil {
			return nil, err
		}
	}
	return once, nil
}

// codecProbe times the three wire calls on the hot path over the sample
// of delivered messages: the header-only decode every delivery pays, the
// full decode first-seen edges pay, and the encode a relay pays.
func codecProbe(once map[string]float64, s *msgSample) {
	const reps = 20
	count := float64(reps * len(s.msgs))
	var bytes, hops float64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range s.msgs {
			_, _ = inectar.DecodeEdgeHeader(m, s.n)
		}
	}
	once["nectar.header_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / count
	decoded := make([]inectar.EdgeMsg, 0, len(s.msgs))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		decoded = decoded[:0]
		for _, m := range s.msgs {
			if em, err := inectar.DecodeEdgeMsg(m, s.sigSize, s.n); err == nil {
				decoded = append(decoded, em)
			}
		}
	}
	once["nectar.full_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / count
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, em := range decoded {
			_ = em.Encode(s.sigSize)
		}
	}
	once["nectar.encode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(reps*max(len(decoded), 1))
	for _, m := range s.msgs {
		bytes += float64(len(m))
	}
	for _, em := range decoded {
		hops += float64(len(em.Chain))
	}
	once["nectar.msg_bytes_mean"] = bytes / float64(len(s.msgs))
	once["nectar.hops_mean"] = hops / float64(max(len(decoded), 1))
}

// frameProbe echoes `size`-byte frames over one loopback connection: the
// tcpnet framing cost without an n-listener cluster.
func frameProbe(once map[string]float64, size int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			payload, err := tcpnet.ReadFrame(c, 0)
			if err != nil {
				echoed <- nil // the client closed: done
				return
			}
			if err := tcpnet.WriteFrame(c, payload); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	const frames = 2000
	payload := make([]byte, size)
	rts := make([]float64, 0, frames)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		ts := time.Now()
		if err := tcpnet.WriteFrame(c, payload); err != nil {
			c.Close()
			return err
		}
		if _, err := tcpnet.ReadFrame(c, 0); err != nil {
			c.Close()
			return err
		}
		rts = append(rts, float64(time.Since(ts).Nanoseconds())/1e3)
	}
	total := time.Since(t0).Seconds()
	c.Close()
	if err := <-echoed; err != nil {
		return err
	}
	once["tcpnet.frame_rt_us"] = median(rts)
	once["tcpnet.frame_mb_per_s"] = 2 * float64(frames*size) / 1e6 / total
	return nil
}
