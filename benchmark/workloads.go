package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	nectar "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// A workload is a closed loop over a short cycle of inputs generated from
// the seed: op i runs input i mod len(cycle), and the next op starts when
// the previous one returns. README.md records why each one exists.
type workload struct {
	name    string
	prepare func(seed int64) ([]input, error)
	// wireProbes marks the one workload that also carries the obs-recorder
	// and tcpnet-frame probes, which need a Simulate input and its
	// message sample.
	wireProbes bool
}

var workloads = []*workload{
	{name: "dense-ed25519", prepare: prepareDense},
	{name: "drone-hmac", prepare: prepareDrone, wireProbes: true},
	{name: "tree-slim", prepare: prepareTree},
	{name: "fig8-sweep", prepare: prepareSweep},
	{name: "churn-flap", prepare: prepareChurn},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// input is one element of a workload's cycle.
type input interface {
	// run is the op as a user calls it, through the public API.
	run() (opResult, error)
	// compose rebuilds the same op from the layers' public seams so that p
	// can time each of them, with every engine and scheduler at `workers`
	// workers (0 = GOMAXPROCS). A nil p adds no proxy.
	compose(p *probe, workers int) (opResult, error)
	// graphs lists the graphs whose ground-truth κ the op is scored
	// against, and t, for the graph-layer probes.
	graphs() ([]*graph.Graph, int)
	// sigSize is the signature width of the messages compose's proxies
	// see, for the codec probes.
	sigSize() int
}

// opResult is what one op produced, reduced to the schedule-independent
// part: the four exact end-to-end metrics, a digest of everything they are
// derived from, and the reason the op failed its checks, if it did.
type opResult struct {
	KB           float64 `json:"kb_per_node"`
	KBUnicast    float64 `json:"kb_per_node_unicast"`
	ActiveRounds float64 `json:"active_rounds"`
	Accuracy     float64 `json:"accuracy"`
	Digest       string  `json:"digest"`
	Fail         string  `json:"fail,omitempty"`
	// runS is the wall time of the op's rounds.Run calls, where compose
	// can see them; utilization the share of wall × jobs the sweep's units
	// kept busy.
	runS, utilization float64
}

// digest hashes an op's schedule-independent result. The verify-memo
// hit/miss split is deliberately left out: with two or more workers it
// depends on the schedule.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(vs ...any)  { fmt.Fprintln(d.h, vs...) }
func (d digest) String() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

func meanKB(bytes []int64, correct []ids.NodeID) float64 {
	var sum int64
	for _, id := range correct {
		sum += bytes[id]
	}
	return float64(sum) / float64(len(correct)) / 1000
}

// classCheck applies the paper's guarantee classes to one unanimous
// verdict: κ ≥ 2t must read NOT_PARTITIONABLE, κ ≤ t PARTITIONABLE, and
// in between either is allowed.
func classCheck(kappa, t int, partitionable bool) string {
	switch {
	case kappa <= t && !partitionable:
		return fmt.Sprintf("κ=%d ≤ t=%d but verdict NOT_PARTITIONABLE", kappa, t)
	case t > 0 && kappa >= 2*t && partitionable:
		return fmt.Sprintf("κ=%d ≥ 2t=%d but verdict PARTITIONABLE", kappa, 2*t)
	}
	return ""
}

// ---- static Simulate workloads --------------------------------------------

type simInput struct {
	g       *graph.Graph
	kappa   int
	t       int
	seed    int64
	scheme  string
	workers int
}

func (in *simInput) graphs() ([]*graph.Graph, int) { return []*graph.Graph{in.g}, in.t }
func (in *simInput) sigSize() int                  { return sig.ByName(in.scheme, 1, 0).Verifier().SigSize() }

func (in *simInput) run() (opResult, error) {
	res, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: in.g, T: in.t, Seed: in.seed, SchemeName: in.scheme, Workers: in.workers,
	})
	if err != nil {
		return opResult{}, err
	}
	return in.score(res.Outcomes, res.BytesSent, res.BytesBroadcast, res.ActiveRounds), nil
}

func (in *simInput) compose(p *probe, workers int) (opResult, error) {
	n := in.g.N()
	k := p.begin("sig.keygen")
	scheme := p.scheme(sig.ByName(in.scheme, n, in.seed))
	p.end(k)
	vc := sig.NewVerifyCache()
	b := p.begin("nectar.build")
	nodes, err := inectar.BuildNodes(in.g, in.t, scheme, 0, inectar.WithVerifyCache(vc))
	p.end(b)
	if err != nil {
		return opResult{}, err
	}
	protos := make([]rounds.Protocol, n)
	for i, nd := range nodes {
		protos[i] = p.proto(nd)
	}
	r := p.begin("rounds.run")
	t0 := time.Now()
	m, err := rounds.Run(rounds.Config{Graph: in.g, Rounds: n - 1, Seed: in.seed, Workers: workers}, protos)
	runS := time.Since(t0).Seconds()
	p.end(r)
	if err != nil {
		return opResult{}, err
	}
	d := p.begin("nectar.decide")
	dc := inectar.NewDecideCache()
	outcomes := make(map[ids.NodeID]inectar.Outcome, n)
	for i, nd := range nodes {
		outcomes[ids.NodeID(i)] = nd.DecideShared(dc)
	}
	p.end(d)
	p.addEngine(m)
	p.addNodes(nodes, vc)
	p.add("nectar.decide_cache_hits", float64(dc.Hits()))
	res := in.score(outcomes, m.BytesSent, m.BytesBroadcast, m.ActiveRounds)
	res.runS = runS
	return res, nil
}

// addEngine folds one engine run's traffic counters into the probe.
func (p *probe) addEngine(m *rounds.Metrics) {
	if p == nil {
		return
	}
	for i := range m.MsgsSent {
		p.add("rounds.msgs_sent", float64(m.MsgsSent[i]))
		p.add("rounds.msgs_delivered", float64(m.MsgsDelivered[i]))
		p.add("rounds.bytes_sent", float64(m.BytesSent[i]))
	}
	p.add("rounds.active_rounds", float64(m.ActiveRounds))
	p.add("rounds.horizon", float64(m.Rounds))
}

// addNodes folds the nodes' message-handling outcomes and the run's
// verify-memo split into the probe.
func (p *probe) addNodes(nodes []*inectar.Node, vc *sig.VerifyCache) {
	if p == nil {
		return
	}
	for _, nd := range nodes {
		st := nd.Stats()
		p.add("nectar.accepted", float64(st.Accepted))
		p.add("nectar.duplicates", float64(st.Duplicates))
		p.add("nectar.rejected", float64(st.Rejected))
		p.add("nectar.lazy_discards", float64(st.LazyDiscards))
	}
	hits, misses := vc.Stats()
	p.add("sig.verify_hits", float64(hits))
	p.add("sig.verify_misses", float64(misses))
}

func (in *simInput) score(outcomes map[ids.NodeID]inectar.Outcome, sent, bcast []int64, active int) opResult {
	n := in.g.N()
	correct := make([]ids.NodeID, n)
	for i := range correct {
		correct[i] = ids.NodeID(i)
	}
	res := opResult{
		KB: meanKB(bcast, correct), KBUnicast: meanKB(sent, correct), ActiveRounds: float64(active),
	}
	d := newDigest()
	d.add(active, sent, bcast)
	truth := in.kappa <= in.t
	first := outcomes[0]
	matches := 0
	for _, id := range correct {
		o := outcomes[id]
		d.add(id, o.Decision, o.Confirmed, o.Reachable, o.ConnectivityOverT)
		if o.Decision != first.Decision && res.Fail == "" {
			res.Fail = fmt.Sprintf("nodes 0 and %v disagree", id)
		}
		if (o.Decision == inectar.Partitionable) == truth {
			matches++
		}
	}
	res.Accuracy = float64(matches) / float64(n)
	res.Digest = d.String()
	if res.Fail == "" {
		res.Fail = classCheck(in.kappa, in.t, first.Decision == inectar.Partitionable)
	}
	if res.Fail == "" && res.Accuracy < 1 {
		res.Fail = fmt.Sprintf("accuracy %.3f < 1", res.Accuracy)
	}
	return res
}

func simCycle(gs []*graph.Graph, count, t int, seed int64, scheme string, workers int) []input {
	ins := make([]input, count)
	for i := range ins {
		g := gs[i%len(gs)]
		ins[i] = &simInput{g: g, kappa: g.Connectivity(), t: t, seed: seed + int64(i), scheme: scheme, workers: workers}
	}
	return ins
}

// dense-ed25519: the paper's production scheme on its k-regular family.
// One engine worker: two workers saturating both reference vCPUs with
// Ed25519 moved block medians by 16 % between identical runs.
func prepareDense(seed int64) ([]input, error) {
	g, err := topology.Harary(10, 40)
	if err != nil {
		return nil, err
	}
	return simCycle([]*graph.Graph{g}, 4, 2, seed, "ed25519", 1), nil
}

// drone-hmac: the paper's drone geometry, eight graphs per seed.
func prepareDrone(seed int64) ([]input, error) {
	gs := make([]*graph.Graph, 8)
	for i := range gs {
		g, _, err := topology.Drone(60, 2.5, 1.2, rand.New(rand.NewSource(seed+int64(i))))
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return simCycle(gs, len(gs), 2, seed, "hmac", 0), nil
}

// tree-slim: unique paths, so every delivery is first-seen.
func prepareTree(seed int64) ([]input, error) {
	g, err := topology.KaryTree(3, 500)
	if err != nil {
		return nil, err
	}
	return simCycle([]*graph.Graph{g}, 4, 1, seed, "slim", 0), nil
}

// ---- fig8-sweep -------------------------------------------------------------

type sweepInput struct {
	specs []harness.Spec
	// kappa[s][u] is the ground-truth κ of spec s's trial u, from the
	// scenario regenerated with the runner's own unit seed.
	kappa [][]int
	gs    []*graph.Graph
	t     int
}

func (in *sweepInput) graphs() ([]*graph.Graph, int) { return in.gs, in.t }
func (in *sweepInput) sigSize() int                  { return 0 } // no proxy sees a message

func prepareSweep(seed int64) ([]input, error) {
	const n, t, trials = 35, 2, 5
	mk := func(p harness.ProtocolKind, a harness.AttackKind, bridges int) harness.Spec {
		return harness.Spec{
			Name: string(p) + "-" + string(a), Protocol: p, Attack: a,
			Scenario: harness.Bridge(n, t, 6, 1.8, bridges), T: t, Trials: trials, Seed: seed + 6,
		}
	}
	in := &sweepInput{t: t, specs: []harness.Spec{
		mk(harness.ProtoNectar, harness.AttackSplitBrain, 2),
		mk(harness.ProtoNectar, harness.AttackFakeEdges, 2),
		mk(harness.ProtoNectar, harness.AttackEquivocate, 2),
		mk(harness.ProtoMtG, harness.AttackPoison, 0),
		mk(harness.ProtoMtGv2, harness.AttackSplitBrain, 2),
	}}
	for _, s := range in.specs {
		runner, err := harness.NewRunner(s)
		if err != nil {
			return nil, err
		}
		ks := make([]int, runner.Units())
		for u := range ks {
			sc, err := s.Scenario(rand.New(rand.NewSource(runner.UnitSeed(u))))
			if err != nil {
				return nil, err
			}
			ks[u] = sc.Graph.Connectivity()
			in.gs = append(in.gs, sc.Graph)
		}
		in.kappa = append(in.kappa, ks)
	}
	return []input{in}, nil
}

func (in *sweepInput) run() (opResult, error) {
	results, err := nectar.RunExperiments(in.specs, 0)
	if err != nil {
		return opResult{}, err
	}
	return in.score(results), nil
}

func (in *sweepInput) compose(p *probe, workers int) (opResult, error) {
	plan := &exp.Plan{}
	protoOf := map[string]harness.ProtocolKind{}
	for i, s := range in.specs {
		runner, err := harness.NewRunner(s)
		if err != nil {
			return opResult{}, err
		}
		key := fmt.Sprintf("%d/%s", i, s.Name)
		protoOf[key] = s.Protocol
		if err := plan.Add(key, runner); err != nil {
			return opResult{}, err
		}
	}
	x := p.begin("exp.execute")
	out, err := exp.Execute(plan, exp.Options{Jobs: workers, OnUnit: func(ev exp.UnitEvent) {
		if p == nil {
			return
		}
		// The scheduler reports a finished unit's duration, not its start:
		// with one job, units run back to back and the span ends here.
		end := p.now()
		p.spans = append(p.spans, span{ID: len(p.spans), Parent: x, Op: p.op, Name: "harness.unit." + string(protoOf[ev.Key]),
			Start: end - int64(ev.Elapsed), End: end, Busy: int64(ev.Elapsed), Calls: 1})
	}})
	p.end(x)
	if err != nil {
		return opResult{}, err
	}
	results := make([]*harness.Result, len(in.specs))
	for i := range results {
		results[i] = out.Specs[i].Aggregate.(*harness.Result)
	}
	p.add("exp.units", float64(out.UnitsRun))
	for _, r := range results {
		switch r.Spec.Protocol {
		case harness.ProtoMtG:
			p.add("mtg.accuracy", r.Accuracy.Mean)
			p.add("mtg.kb_per_node", r.KBPerNodeBroadcast())
		case harness.ProtoMtGv2:
			p.add("mtgv2.accuracy", r.Accuracy.Mean)
			p.add("mtgv2.kb_per_node", r.KBPerNodeBroadcast())
		}
	}
	res := in.score(results)
	res.utilization = out.UnitTime.Seconds() / (out.Wall.Seconds() * float64(out.Jobs))
	return res, nil
}

// score reads kb_per_node, active_rounds and accuracy off the NECTAR
// specs only — the baselines' side of the comparison is a per-layer
// figure — and digests every spec's aggregates.
func (in *sweepInput) score(results []*harness.Result) opResult {
	var res opResult
	d := newDigest()
	nectarSpecs := 0.0
	for s, r := range results {
		for _, sum := range []float64{r.Accuracy.Mean, r.Agreement.Mean, r.DetectRate.Mean,
			r.BytesPerNode.Mean, r.MaxBytes.Mean, r.BroadcastBytes.Mean, r.ActiveRounds.Mean} {
			d.add(math.Float64bits(sum))
		}
		if r.Spec.Protocol != harness.ProtoNectar {
			continue
		}
		nectarSpecs++
		res.KB += r.KBPerNodeBroadcast()
		res.KBUnicast += r.KBPerNode()
		res.ActiveRounds += r.ActiveRounds.Mean
		res.Accuracy += r.Accuracy.Mean
		for u, tr := range r.Trials {
			if res.Fail != "" {
				break
			}
			switch {
			case !tr.Agreement:
				res.Fail = fmt.Sprintf("%s trial %d: correct nodes disagree", r.Spec.Name, u)
			case tr.DetectRate != 0 && tr.DetectRate != 1:
				res.Fail = fmt.Sprintf("%s trial %d: detect rate %.3f", r.Spec.Name, u, tr.DetectRate)
			default:
				if why := classCheck(in.kappa[s][u], in.t, tr.DetectRate == 1); why != "" {
					res.Fail = fmt.Sprintf("%s trial %d: %s", r.Spec.Name, u, why)
				}
			}
		}
	}
	res.KB /= nectarSpecs
	res.KBUnicast /= nectarSpecs
	res.ActiveRounds /= nectarSpecs
	res.Accuracy /= nectarSpecs
	res.Digest = d.String()
	if res.Fail == "" && res.Accuracy < 1 {
		res.Fail = fmt.Sprintf("NECTAR accuracy %.3f < 1", res.Accuracy)
	}
	return res
}

// ---- churn-flap -------------------------------------------------------------

type churnInput struct {
	schedule *dynamic.EdgeSchedule
	t        int
	seed     int64
	epochs   int
	gs       []*graph.Graph // epoch-start graphs
}

func (in *churnInput) graphs() ([]*graph.Graph, int) { return in.gs, in.t }
func (in *churnInput) sigSize() int                  { return sig.ByName("hmac", 1, 0).Verifier().SigSize() }

// prepareChurn draws flapping schedules from the seed until one has a
// ground-truth flip: re-detection without a flip to detect is mis-sized.
func prepareChurn(seed int64) ([]input, error) {
	const n, t, epochs = 30, 2, 16
	base, err := topology.Harary(6, n)
	if err != nil {
		return nil, err
	}
	for draw := int64(0); draw < 64; draw++ {
		rng := rand.New(rand.NewSource(seed + 2 + 1000*draw))
		sch, err := dynamic.Flapping(base, 0.05, 0.3, epochs*(n-1), rng)
		if err != nil {
			return nil, err
		}
		in := &churnInput{schedule: sch, t: t, seed: seed + 4, epochs: epochs}
		flips := 0
		for e := 0; e < epochs; e++ {
			w, err := dynamic.WindowAt(sch, e*(n-1))
			if err != nil {
				return nil, err
			}
			g := w.GraphFor(1).Clone()
			if e > 0 && g.IsTByzPartitionable(t) != in.gs[e-1].IsTByzPartitionable(t) {
				flips++
			}
			in.gs = append(in.gs, g)
		}
		if flips > 0 {
			return []input{in}, nil
		}
	}
	return nil, fmt.Errorf("churn-flap: no schedule with a ground-truth flip for seed %d", seed)
}

// epochView is the part of an epoch both the public and the composed run
// expose.
type epochView struct {
	truthPartitionable bool
	outcomes           map[ids.NodeID]inectar.Outcome
	bytesSent          []int64
	activeRounds       int
}

func (in *churnInput) run() (opResult, error) {
	res, err := nectar.SimulateDynamic(nectar.DynamicConfig{
		Schedule: in.schedule, T: in.t, Seed: in.seed, SchemeName: "hmac", Epochs: in.epochs,
	})
	if err != nil {
		return opResult{}, err
	}
	views := make([]epochView, len(res.Epochs))
	for e, ep := range res.Epochs {
		views[e] = epochView{ep.TruthPartitionable, ep.Outcomes, ep.BytesSent, ep.ActiveRounds}
	}
	return in.score(views, res.Flips), nil
}

func (in *churnInput) compose(p *probe, workers int) (opResult, error) {
	n := in.schedule.Base.N()
	var perEpoch []map[ids.NodeID]inectar.Outcome
	dc := inectar.NewDecideCache()
	// dynamic.Run has no seam around its engine call: between a build's
	// return and the matching Finish it evaluates the ground-truth κ and
	// drives rounds.Run, so that interval is the epoch's rounds.run span.
	var runS float64
	var runStart time.Time
	var runSpan int
	build := func(epoch int, g *graph.Graph, absent ids.Set, seed int64) (*dynamic.Stack, error) {
		b := p.begin("dynamic.build")
		defer func() {
			p.end(b)
			runSpan = p.begin("rounds.run")
			runStart = time.Now()
		}()
		k := p.begin("sig.keygen")
		scheme := p.scheme(sig.ByName("hmac", n, seed))
		p.end(k)
		vc := sig.NewVerifyCache()
		nb := p.begin("nectar.build")
		nodes, err := inectar.BuildNodes(g, in.t, scheme, 0, inectar.WithVerifyCache(vc))
		p.end(nb)
		if err != nil {
			return nil, err
		}
		protos := make([]rounds.Protocol, n)
		for i, nd := range nodes {
			if absent.Has(ids.NodeID(i)) {
				protos[i] = adversary.Silent{}
			} else {
				protos[i] = p.proto(nd)
			}
		}
		return &dynamic.Stack{Protos: protos, Finish: func() map[ids.NodeID]dynamic.Verdict {
			runS += time.Since(runStart).Seconds()
			p.end(runSpan)
			f := p.begin("dynamic.finish")
			defer p.end(f)
			d := p.begin("nectar.decide")
			outcomes := make(map[ids.NodeID]inectar.Outcome, n)
			verdicts := make(map[ids.NodeID]dynamic.Verdict, n)
			var present []*inectar.Node
			for i, nd := range nodes {
				id := ids.NodeID(i)
				if absent.Has(id) {
					continue
				}
				present = append(present, nd)
				o := nd.DecideShared(dc)
				outcomes[id] = o
				verdicts[id] = dynamic.Verdict{
					Partitionable: o.Decision == inectar.Partitionable,
					Key:           fmt.Sprint(o.Decision, "/", o.Confirmed),
				}
			}
			p.end(d)
			p.addNodes(present, vc)
			perEpoch = append(perEpoch, outcomes)
			return verdicts
		}}, nil
	}
	r := p.begin("dynamic.run")
	out, err := dynamic.Run(dynamic.Config{
		Schedule: in.schedule, T: in.t, Seed: in.seed, Epochs: in.epochs, Workers: workers,
	}, build)
	p.end(r)
	if err != nil {
		return opResult{}, err
	}
	views := make([]epochView, len(out.Epochs))
	for e, rep := range out.Epochs {
		views[e] = epochView{rep.TruthPartitionable, perEpoch[e], rep.Metrics.BytesSent, rep.Metrics.ActiveRounds}
		p.addEngine(rep.Metrics)
	}
	if p != nil {
		mean, detected, _ := out.DetectionLatency()
		p.add("dynamic.epochs", float64(len(out.Epochs)))
		p.add("dynamic.flips", float64(len(out.Flips)))
		p.add("dynamic.detected", float64(detected))
		p.add("dynamic.latency_epochs_sum", mean*float64(detected))
		p.add("dynamic.kappa_exact_evals", float64(out.KappaStats.ExactEvals))
		p.add("nectar.decide_cache_hits", float64(dc.Hits()))
	}
	res := in.score(views, out.Flips)
	res.runS = runS
	return res, nil
}

// score averages cost per epoch and accuracy per (epoch, node) against
// the epoch-start truth. Mid-epoch link changes can make a correct node
// miss the start-of-epoch truth, so accuracy only has to repeat; the one
// requirement is a flip to detect. EpochResult meters unicast bytes only,
// so both kb_per_node figures carry the unicast number here.
func (in *churnInput) score(epochs []epochView, flips []dynamic.Flip) opResult {
	var res opResult
	d := newDigest()
	matches, verdicts := 0, 0
	for _, ep := range epochs {
		var correct []ids.NodeID
		for id := 0; id < len(ep.bytesSent); id++ {
			o, ok := ep.outcomes[ids.NodeID(id)]
			if !ok {
				continue
			}
			correct = append(correct, ids.NodeID(id))
			d.add(id, o.Decision, o.Confirmed)
			verdicts++
			if (o.Decision == inectar.Partitionable) == ep.truthPartitionable {
				matches++
			}
		}
		d.add(ep.truthPartitionable, ep.activeRounds, ep.bytesSent)
		res.KBUnicast += meanKB(ep.bytesSent, correct)
		res.ActiveRounds += float64(ep.activeRounds)
	}
	for _, f := range flips {
		d.add(f.Epoch, f.ToPartitionable, f.DetectedEpoch, f.Latency)
	}
	res.KBUnicast /= float64(len(epochs))
	res.KB = res.KBUnicast
	res.ActiveRounds /= float64(len(epochs))
	res.Accuracy = float64(matches) / float64(verdicts)
	res.Digest = d.String()
	if len(flips) == 0 {
		res.Fail = "no ground-truth flip in the run"
	}
	return res
}
