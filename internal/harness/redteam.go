package harness

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/redteam"
	"github.com/nectar-repro/nectar/internal/stats"
)

// RedTeamSpec describes one worst-case attack search (DESIGN.md §8): a
// topology is sampled once from the seed, and the search then spends an
// evaluation budget looking for the t-node Byzantine placement that
// maximizes a damage objective under a fixed attack behaviour — over
// every placement when C(n,t) fits the budget, by an annealing walk when
// it does not. The whole run — topology, candidate sequence,
// per-candidate trials, baseline — is a pure function of the spec:
// identical specs reproduce identical results bit for bit.
type RedTeamSpec struct {
	// Name labels the search in reports.
	Name string
	// Topology samples the graph under attack (once, from the spec seed).
	// Required.
	Topology func(rng *rand.Rand) (*graph.Graph, error)
	// T is the Byzantine bound: the number of slots to place and the
	// bound handed to the detector. Required, 0 < T < n.
	T int
	// Protocol selects the protocol under test ("" = nectar).
	Protocol ProtocolKind
	// Attack is the behaviour evaluated at every candidate placement
	// ("" = splitbrain).
	Attack AttackKind
	// Objective selects the damage maximized ("" = misclassify).
	Objective redteam.Objective
	// Budget caps candidate evaluations (0 = 128). When C(n,T) ≤ Budget
	// the search scores every placement, so n = 16, t = 2 is exact by
	// default.
	Budget int
	// BaselineSamples is the number of uniform random placements scored
	// for the comparison baseline (0 = 16).
	BaselineSamples int
	// Trials is the number of engine runs per candidate evaluation
	// (0 = 3). Damage is scored on the mean over these trials.
	Trials int
	// Seed derives all randomness: topology sampling, the annealing
	// walk, per-candidate trial seeds.
	Seed int64
	// SchemeName selects the signature scheme ("" = "hmac").
	SchemeName string
	// Jobs is the parallelism budget for the per-candidate evaluation
	// trials (0 = GOMAXPROCS). The search scores one candidate at a
	// time, so the budget flows into each candidate's trials. Never
	// changes results (see DESIGN.md §10).
	Jobs int
}

// withDefaults resolves the zero-value knobs.
func (s RedTeamSpec) withDefaults() RedTeamSpec {
	if s.Protocol == "" {
		s.Protocol = ProtoNectar
	}
	if s.Attack == "" {
		s.Attack = AttackSplitBrain
	}
	if s.Objective == "" {
		s.Objective = redteam.ObjMisclassify
	}
	if s.Budget == 0 {
		s.Budget = 128
	}
	if s.BaselineSamples == 0 {
		s.BaselineSamples = 16
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	if s.SchemeName == "" {
		s.SchemeName = "hmac"
	}
	return s
}

// RedTeamResult reports the searched worst case next to the random
// baseline and the paper's guarantee for the sampled topology.
type RedTeamResult struct {
	// Spec echoes the (defaults-resolved) input.
	Spec RedTeamSpec
	// N, Edges, Kappa describe the sampled topology.
	N, Edges, Kappa int
	// TruthPartitionable is the ground truth κ ≤ t (Corollary 1).
	TruthPartitionable bool
	// GuaranteeHolds reports κ ≥ 2t with t ≥ 1: the 2t-Sensitivity
	// hypothesis, under which every correct node must decide
	// NOT_PARTITIONABLE and misclassification damage is provably 0.
	GuaranteeHolds bool
	// Guarantee states the applicable bound in words.
	Guarantee string
	// Best is the searched worst case.
	Best redteam.Outcome
	// BestMetrics are the evaluation metrics behind Best.Damage.
	BestMetrics redteam.EvalMetrics
	// Baseline summarizes the damage of BaselineSamples uniform random
	// placements; BaselineBest is the best of them.
	Baseline     stats.Summary
	BaselineBest float64
	// Trace records every search evaluation in order.
	Trace []redteam.Step
}

// Gain is the searched damage minus the mean random-placement damage —
// how much the searched adversary outperforms aleatory placement.
func (r *RedTeamResult) Gain() float64 { return r.Best.Damage - r.Baseline.Mean }

// runRedTeamSearch executes the search described by spec, validated by
// NewRedTeamRunner. engineWorkers is the per-candidate evaluation budget
// handed down by the scheduler.
func runRedTeamSearch(spec *RedTeamSpec, engineWorkers int) (RedTeamResult, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	g, err := spec.Topology(rng)
	if err != nil {
		return RedTeamResult{}, err
	}
	n := g.N()
	if spec.T >= n {
		return RedTeamResult{}, fmt.Errorf("harness: RunRedTeam needs 0 < T < n, got T=%d n=%d", spec.T, n)
	}

	res := RedTeamResult{Spec: *spec, N: n, Edges: g.M(), Kappa: g.Connectivity()}
	res.TruthPartitionable = res.Kappa <= spec.T
	res.GuaranteeHolds = spec.T > 0 && res.Kappa >= 2*spec.T
	switch {
	case res.GuaranteeHolds:
		res.Guarantee = fmt.Sprintf("2t-sensitivity (κ=%d ≥ 2t=%d): misclassification bound 0",
			res.Kappa, 2*spec.T)
	case res.TruthPartitionable:
		res.Guarantee = fmt.Sprintf("t-Byz partitionable (κ=%d ≤ t=%d): PARTITIONABLE is the specified verdict",
			res.Kappa, spec.T)
	default:
		res.Guarantee = fmt.Sprintf("no bound (t=%d < κ=%d < 2t=%d): adversary may legally force errors",
			spec.T, res.Kappa, 2*spec.T)
	}

	// Evaluations are pure functions of the placement (per-placement
	// seeds), so memoize the full metrics: the search, the BestMetrics
	// lookup, and the baseline all share one score per placement.
	metricsCache := make(map[string]redteam.EvalMetrics)
	metricsFor := func(p redteam.Placement) (redteam.EvalMetrics, error) {
		key := p.Key()
		if m, ok := metricsCache[key]; ok {
			return m, nil
		}
		m, err := redTeamMetrics(spec, g, p, engineWorkers)
		if err == nil {
			metricsCache[key] = m
		}
		return m, err
	}
	eval := func(p redteam.Placement) (float64, error) {
		m, err := metricsFor(p)
		if err != nil {
			return 0, err
		}
		return spec.Objective.Damage(m), nil
	}
	out, err := redteam.Search{
		Graph:  g,
		T:      spec.T,
		Budget: spec.Budget,
		Eval:   eval,
		Rand:   rng,
		OnStep: func(s redteam.Step) { res.Trace = append(res.Trace, s) },
	}.Run()
	if err != nil {
		return RedTeamResult{}, err
	}
	res.Best = out
	if m, err := metricsFor(out.Placement); err == nil {
		res.BestMetrics = m
	} else {
		return RedTeamResult{}, err
	}

	// Random baseline: aleatory placement with the same evaluation
	// pipeline, drawn from a seed-derived stream independent of the
	// search's draws.
	baseRng := rand.New(rand.NewSource(spec.Seed ^ 0x5EEDBA5E))
	damages := make([]float64, 0, spec.BaselineSamples)
	for i := 0; i < spec.BaselineSamples; i++ {
		d, err := eval(redteam.RandomPlacement(n, spec.T, baseRng))
		if err != nil {
			return RedTeamResult{}, err
		}
		damages = append(damages, d)
		if d > res.BaselineBest {
			res.BaselineBest = d
		}
	}
	res.Baseline = stats.Summarize(damages)
	return res, nil
}

// redTeamMetrics scores one placement: builds the scenario, runs the
// trials under the evaluation parallelism budget, and folds the result
// into the objective's input metrics.
func redTeamMetrics(spec *RedTeamSpec, g *graph.Graph, p redteam.Placement, jobs int) (redteam.EvalMetrics, error) {
	// The per-placement seed decouples trial randomness from the search
	// path: a placement scores identically whether the search visits it
	// first or last, and whether the search is exact or sampled.
	pSeed := spec.Seed ^ int64(placementHash(p))
	sc := redTeamScenario(g, p, pSeed)
	res, err := runOne[*Result](Spec{
		Name:       spec.Name,
		Protocol:   spec.Protocol,
		Attack:     spec.Attack,
		Scenario:   func(*rand.Rand) (*Scenario, error) { return sc, nil },
		T:          spec.T,
		Trials:     spec.Trials,
		Seed:       pSeed,
		SchemeName: spec.SchemeName,
	}, spec.Name, jobs, NewRunner)
	if err != nil {
		return redteam.EvalMetrics{}, err
	}
	return redteam.EvalMetrics{
		Accuracy:  res.Accuracy.Mean,
		Agreement: res.Agreement.Mean,
		KBPerNode: res.BroadcastBytes.Mean / 1000,
	}, nil
}

// redTeamScenario fixes the scenario for a candidate placement. The
// split-brain blocked side is derived deterministically from the
// placement: the component the placement's removal severs when one
// exists, a placement-seeded BFS half otherwise.
func redTeamScenario(g *graph.Graph, p redteam.Placement, pSeed int64) *Scenario {
	byz := p.Set()
	var blockedSet ids.Set
	comps := g.RemoveVertices(byz).Components()
	if len(comps) > 1 {
		rng := rand.New(rand.NewSource(pSeed))
		blockedSet = ids.NewSet(pickVictimComponent(comps, byz, rng)...)
	} else {
		blockedSet = bfsHalf(g, rand.New(rand.NewSource(pSeed)))
	}
	blocked := make(map[ids.NodeID]ids.Set, len(p))
	for _, b := range p {
		blocked[b] = blockedSet
	}
	return &Scenario{Graph: g, Byz: byz, Blocked: blocked}
}

// placementHash folds a placement into 63 bits (FNV-1a over the member
// IDs) for per-placement seed derivation.
func placementHash(p redteam.Placement) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range p {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(v>>shift) & 0xFF
			h *= prime
		}
	}
	return h >> 1 // keep the derived int64 seed non-negative
}
