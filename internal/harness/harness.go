package harness

import (
	"cmp"
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/stats"
)

// Spec describes one experiment: a protocol, an attack, a scenario
// generator, and the trial methodology.
type Spec struct {
	// Name labels the experiment in reports.
	Name string
	// Protocol selects the protocol under test.
	Protocol ProtocolKind
	// Attack selects the Byzantine behaviour; empty means AttackNone.
	Attack AttackKind
	// Scenario generates the per-trial topology and Byzantine placement.
	Scenario ScenarioFn
	// T is the Byzantine bound handed to NECTAR nodes (and typically the
	// number of Byzantine nodes the scenario places).
	T int
	// Trials is the number of repetitions (the paper uses 50).
	Trials int
	// Seed derives every trial's randomness; identical Specs reproduce
	// identical Results.
	Seed int64
	// SchemeName selects the signature scheme ("" = "hmac"; use
	// "ed25519" for real asymmetric crypto — see DESIGN.md §4).
	SchemeName string
	// LossRate injects independent message loss (violating the paper's
	// reliable-channel assumption) — for baseline robustness studies and
	// NECTAR degradation analysis. See rounds.Config.LossRate.
	LossRate float64

	// fullHorizon runs every trial through all rounds instead of exiting
	// once the nodes go quiescent (DESIGN.md §6), and noVerifyCache runs
	// NECTAR trials without the per-trial boards and proof ledger (§9): the
	// references this package's tests compare the default against.
	fullHorizon, noVerifyCache bool
	// rounds shortens the horizon below n-1 (0 = n-1), for this package's
	// tests only: the baselines' pinned runs stop while gossip still
	// spreads.
	rounds int
}

// Truth is the scenario's ground truth, computed from the generated graph
// and Byzantine placement.
type Truth struct {
	// GraphPartitioned: G itself is disconnected (Def. 1).
	GraphPartitioned bool
	// CorrectPartitioned: the subgraph induced by correct nodes is
	// disconnected — Byzantine nodes can actually sever correct nodes.
	CorrectPartitioned bool
	// TByzPartitionable: κ(G) ≤ T (Corollary 1) — the property NECTAR
	// detects.
	TByzPartitionable bool
	// TwoTConnected: κ(G) ≥ 2T with T ≥ 1 — the hypothesis of the
	// 2t-Sensitivity property (every correct node must decide
	// NOT_PARTITIONABLE). Def. 3 requires k₀ > t, so T = 0 (where 2T = 0
	// degenerates) is excluded.
	TwoTConnected bool
	// ByzEnclave: some Byzantine node has no correct neighbor. Together
	// with CorrectPartitioned this is the exhaustive case split of the
	// Validity proof (Thm. 2): confirmed=true implies one of the two.
	ByzEnclave bool
}

// Trial is the scored outcome of one run.
type Trial struct {
	Truth Truth
	// Accuracy is the fraction of correct nodes whose decision matches
	// ground truth (the paper's "decision success rate", Fig. 8).
	Accuracy float64
	// Agreement reports whether all correct nodes decided the same value
	// (Def. 3 Agreement): none or all of them flagged a partition.
	Agreement bool
	// DetectRate is the fraction of correct nodes flagging a partition.
	DetectRate float64
	// ConfirmRate is the fraction of correct nodes with confirmed=true
	// (NECTAR only; 0 for baselines).
	ConfirmRate float64
	// MeanBytesPerNode / MaxBytesPerNode meter unicast traffic of correct
	// nodes (bytes counted once per destination).
	MeanBytesPerNode float64
	MaxBytesPerNode  float64
	// MeanBroadcastBytes counts each multicast (one rounds.Send) once — the
	// salticidae-style multicast accounting of the paper's cost figures.
	MeanBroadcastBytes float64
	// Rounds is the horizon, n-1; ActiveRounds is how many rounds
	// the engine actually executed before every node went quiescent
	// (equal to Rounds when no early exit happened).
	Rounds       int
	ActiveRounds int
	// FastPath groups the trial's fast-path counters (verify-cache
	// hits/misses, lazy header-only discards, decide-cache hits — NECTAR
	// only, zero for baselines; see DESIGN.md §9, §12). Embedded, so the
	// fields promote.
	obs.FastPath
}

// Result aggregates all trials of a Spec.
type Result struct {
	Spec   Spec
	Trials []Trial
	// Accuracy, Agreement, DetectRate, BytesPerNode and MaxBytes summarize
	// the per-trial series with 95% confidence intervals.
	Accuracy       stats.Summary
	Agreement      stats.Summary
	DetectRate     stats.Summary
	BytesPerNode   stats.Summary // unicast bytes
	MaxBytes       stats.Summary // unicast bytes
	BroadcastBytes stats.Summary // multicast-accounted bytes
	// ActiveRounds summarizes per-trial engine rounds actually executed
	// (quiescence early exit makes this < the horizon on most topologies).
	ActiveRounds stats.Summary
}

// KBPerNode returns the mean unicast data sent per node in kilobytes.
func (r *Result) KBPerNode() float64 { return r.BytesPerNode.Mean / 1000 }

// KBPerNodeBroadcast returns the mean multicast-accounted data sent per
// node in kilobytes — the y-axis of the paper's cost figures (DESIGN.md
// §5).
func (r *Result) KBPerNodeBroadcast() float64 { return r.BroadcastBytes.Mean / 1000 }

// validate checks the spec and returns a copy with defaults resolved.
func (s Spec) validate() (Spec, error) {
	if s.Scenario == nil {
		return s, fmt.Errorf("harness: Scenario generator is required")
	}
	if s.SchemeName == "" {
		s.SchemeName = "hmac"
	}
	if err := checkCounts(s.SchemeName, count{"Trials", s.Trials, true}, count{"T", s.T, false}); err != nil {
		return s, err
	}
	if !(s.LossRate >= 0 && s.LossRate < 1) { // NaN fails too
		return s, fmt.Errorf("harness: LossRate must be in [0,1), got %v", s.LossRate)
	}
	if row(s.Protocol, s.Attack) == nil {
		return s, fmt.Errorf("harness: attack %q not defined for protocol %q", s.Attack, s.Protocol)
	}
	return s, nil
}

// count is one integer spec field, which must be non-negative, or
// positive when positive is set.
type count struct {
	name     string
	v        int
	positive bool
}

// checkCounts is the check every spec kind's constructor makes before any
// unit runs: each count in range, and a scheme name sig.ByName knows.
func checkCounts(scheme string, counts ...count) error {
	for _, c := range counts {
		switch {
		case c.positive && c.v <= 0:
			return fmt.Errorf("harness: %s must be positive, got %d", c.name, c.v)
		case c.v < 0:
			return fmt.Errorf("harness: %s must be non-negative, got %d", c.name, c.v)
		}
	}
	if err := sig.CheckName(scheme); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// trialSeedStride spaces per-trial seeds; the dynamic driver and the
// epoch stride (internal/dynamic) use the same constant so epoch 0 of
// trial 0 reproduces a static run bit for bit.
const trialSeedStride = 0x9E3779B9

// trialSeedOf derives the seed that fully determines trial i of a spec
// seeded with base.
func trialSeedOf(base int64, trial int) int64 {
	return base + int64(trial)*trialSeedStride
}

// runTrial generates the scenario, wires the protocol stacks, drives the
// rounds engine with the given intra-trial worker allowance, and scores
// the outcome.
func runTrial(spec *Spec, trial, engineWorkers int) (Trial, error) {
	sc, trialSeed, err := trialSetup(spec, trial)
	if err != nil {
		return Trial{}, err
	}
	protos, finish, err := buildTrial(spec, sc, trialSeed)
	if err != nil {
		return Trial{}, err
	}
	metrics, err := rounds.Run(rounds.Config{
		Graph:       sc.Graph,
		Rounds:      cmp.Or(spec.rounds, sc.Graph.N()-1),
		Seed:        trialSeed,
		Workers:     engineWorkers,
		FullHorizon: spec.fullHorizon,
		LossRate:    spec.LossRate,
	}, protos)
	if err != nil {
		return Trial{}, err
	}
	decisions, pc := finish()
	return score(spec, sc, decisions, pc, metrics), nil
}

// trialSetup derives trial i's seed and generates the trial's scenario
// from it.
func trialSetup(spec *Spec, trial int) (*Scenario, int64, error) {
	trialSeed := trialSeedOf(spec.Seed, trial)
	sc, err := spec.Scenario(rand.New(rand.NewSource(trialSeed)))
	if err != nil {
		return nil, 0, err
	}
	return sc, trialSeed, nil
}

// trialScheme keys the spec's scheme (validated up front) for a trial on n
// nodes. Only NECTAR and MtGv2 trials key one, so a trial of MtG, which
// signs nothing, generates no keys.
func trialScheme(spec *Spec, n int, trialSeed int64) sig.Scheme {
	return sig.ByName(spec.SchemeName, n, trialSeed^0x5F5F5F5F)
}

// score computes the trial metrics over correct nodes.
func score(spec *Spec, sc *Scenario, decisions []nodeDecision, pc obs.FastPath, m *rounds.Metrics) Trial {
	// One bounded κ answers both thresholds: κ ≤ t (Corollary 1) and κ ≥ 2t.
	kappa := sc.Graph.ConnectivityUpTo(max(spec.T+1, 2*spec.T))
	truth := Truth{
		GraphPartitioned:   sc.Graph.IsPartitioned(),
		CorrectPartitioned: !sc.Graph.InducedSubgraphConnected(sc.Byz),
		TByzPartitionable:  kappa <= spec.T,
		TwoTConnected:      spec.T > 0 && kappa >= 2*spec.T,
	}
	for b := range sc.Byz {
		enclave := true
		for _, nb := range sc.Graph.Neighbors(b) {
			if !sc.Byz.Has(nb) {
				enclave = false
				break
			}
		}
		if enclave {
			truth.ByzEnclave = true
			break
		}
	}
	expected := truth.CorrectPartitioned
	if spec.Protocol == ProtoNectar {
		// NECTAR's specified target is t-Byzantine partitionability.
		expected = truth.TByzPartitionable
	}

	t := Trial{
		Truth: truth, Rounds: m.Rounds, ActiveRounds: m.ActiveRounds,
		FastPath: pc,
	}
	var correct, detected, confirmed, accurate int
	var bytesSum, bytesMax, bcastSum int64
	for i, d := range decisions {
		if sc.Byz.Has(ids.NodeID(i)) {
			continue
		}
		correct++
		if d.detected {
			detected++
		}
		if d.confirmed {
			confirmed++
		}
		if d.detected == expected {
			accurate++
		}
		b := m.BytesSent[i]
		bytesSum += b
		bcastSum += m.BytesBroadcast[i]
		if b > bytesMax {
			bytesMax = b
		}
	}
	t.Agreement = detected == 0 || detected == correct
	if correct > 0 {
		t.Accuracy = float64(accurate) / float64(correct)
		t.DetectRate = float64(detected) / float64(correct)
		t.ConfirmRate = float64(confirmed) / float64(correct)
		t.MeanBytesPerNode = float64(bytesSum) / float64(correct)
		t.MeanBroadcastBytes = float64(bcastSum) / float64(correct)
	}
	t.MaxBytesPerNode = float64(bytesMax)
	return t
}

// aggregate summarizes the per-trial series.
func aggregate(spec Spec, trials []Trial) *Result {
	pick := func(f func(Trial) float64) []float64 {
		xs := make([]float64, len(trials))
		for i, t := range trials {
			xs[i] = f(t)
		}
		return xs
	}
	boolTo01 := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return &Result{
		Spec:           spec,
		Trials:         trials,
		Accuracy:       stats.Summarize(pick(func(t Trial) float64 { return t.Accuracy })),
		Agreement:      stats.Summarize(pick(func(t Trial) float64 { return boolTo01(t.Agreement) })),
		DetectRate:     stats.Summarize(pick(func(t Trial) float64 { return t.DetectRate })),
		BytesPerNode:   stats.Summarize(pick(func(t Trial) float64 { return t.MeanBytesPerNode })),
		MaxBytes:       stats.Summarize(pick(func(t Trial) float64 { return t.MaxBytesPerNode })),
		BroadcastBytes: stats.Summarize(pick(func(t Trial) float64 { return t.MeanBroadcastBytes })),
		ActiveRounds:   stats.Summarize(pick(func(t Trial) float64 { return float64(t.ActiveRounds) })),
	}
}
