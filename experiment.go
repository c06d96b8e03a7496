package nectar

import (
	"math/rand"

	"github.com/nectar-repro/nectar/internal/harness"
)

// Experiment harness re-exports: the evaluation machinery of §V (repeated
// seeded trials, attacks, accuracy / agreement / cost statistics).

type (
	// ExperimentSpec configures a full experiment.
	ExperimentSpec = harness.Spec
	// ExperimentResult aggregates trial statistics.
	ExperimentResult = harness.Result
	// ExperimentTrial is one scored run.
	ExperimentTrial = harness.Trial
	// Scenario is a generated topology plus Byzantine placement.
	Scenario = harness.Scenario
	// ScenarioFn generates a fresh Scenario per trial.
	ScenarioFn = harness.ScenarioFn
	// ProtocolKind selects nectar / mtg / mtgv2.
	ProtocolKind = harness.ProtocolKind
	// AttackKind selects the Byzantine behaviour.
	AttackKind = harness.AttackKind
	// Truth is a scenario's ground truth.
	Truth = harness.Truth
)

// Protocols under test.
const (
	ProtoNectar = harness.ProtoNectar
	ProtoMtG    = harness.ProtoMtG
	ProtoMtGv2  = harness.ProtoMtGv2
)

// Attacks: the behaviours of Byzantine nodes, for Simulate,
// SimulateDynamic, RunExperiment and RunRedTeam. SupportedAttacks lists
// the ones each protocol defines; Simulate takes every NECTAR attack but
// AttackNone.
const (
	AttackNone       = harness.AttackNone       // Byzantine slots behave correctly (t is only assumed)
	AttackCrash      = harness.AttackCrash      // stays silent
	AttackSplitBrain = harness.AttackSplitBrain // correct towards one side, crashed towards the Blocked nodes
	AttackPoison     = harness.AttackPoison     // MtG's all-ones Bloom filters
	AttackFakeEdges  = harness.AttackFakeEdges  // announces fictitious edges to all other Byzantine nodes (colluding pairs forge joint proofs)
	AttackGarbage    = harness.AttackGarbage    // floods neighbors with random bytes
	AttackStale      = harness.AttackStale      // delays every message one round (stale chains)
	AttackEquivocate = harness.AttackEquivocate // announces its neighborhood only to even-ID neighbors
	AttackOmitOwn    = harness.AttackOmitOwn    // hides its edges to other Byzantine nodes
	AttackAdaptive   = harness.AttackAdaptive   // coordinated: stonewalls, per round, the correct neighbors the coalition heard least from (DESIGN.md §8)
	AttackPhased     = harness.AttackPhased     // coordinated: stale replay for the first third of the horizon, then adaptive equivocation
)

// RunExperiment executes the spec's trials and aggregates accuracy,
// agreement and network-cost statistics with 95% confidence intervals.
// Trials run through the plan/scheduler pipeline (DESIGN.md §10) at a
// GOMAXPROCS budget, split between trial-level and engine-level workers;
// RunExperiments takes the budget as an argument. Results are identical
// for any budget.
func RunExperiment(spec ExperimentSpec) (*ExperimentResult, error) {
	return harness.Run(spec)
}

// RunExperiments executes many specs through ONE scheduler: trial units
// from every spec share a single bounded worker pool (cross-spec
// parallelism — a slow spec no longer serializes the sweep), and results
// come back in spec order, bit-identical to running each spec alone.
// jobs = 0 means GOMAXPROCS. See DESIGN.md §10.
func RunExperiments(specs []ExperimentSpec, jobs int) ([]*ExperimentResult, error) {
	return harness.RunAll(specs, jobs)
}

// PlainScenario wraps a topology generator into a Byzantine-free scenario.
func PlainScenario(gen func(rng *rand.Rand) (*Graph, error)) ScenarioFn {
	return harness.Plain(gen)
}

// FixedGraphScenario repeats the same graph every trial.
func FixedGraphScenario(g *Graph) ScenarioFn { return harness.FixedGraph(g) }

// BridgeScenario builds the paper's Fig. 8 drone bridge attack: a
// partitioned two-scatter drone graph, t Byzantine nodes split across the
// parts, and `bridges` Byzantine edges per Byzantine node re-connecting
// the parts (0 keeps the graph partitioned).
func BridgeScenario(n, t int, d, radius float64, bridges int) ScenarioFn {
	return harness.Bridge(n, t, d, radius, bridges)
}

// CutPlacementScenario places Byzantine nodes on a minimum vertex cut
// when one of size ≤ t exists, at random otherwise.
func CutPlacementScenario(gen func(rng *rand.Rand) (*Graph, error), t int) ScenarioFn {
	return harness.CutPlacement(gen, t)
}

// RandomPlacementScenario places t Byzantine nodes uniformly at random.
func RandomPlacementScenario(gen func(rng *rand.Rand) (*Graph, error), t int) ScenarioFn {
	return harness.RandomPlacement(gen, t)
}
