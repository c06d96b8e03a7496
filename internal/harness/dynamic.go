package harness

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/stats"
)

// DynamicSpec describes one dynamic-network experiment: NECTAR re-run in
// successive epochs over per-trial generated churn/mobility schedules
// (DESIGN.md §7). Dynamics — not Byzantine behaviour — are the adversary
// here, so trials are attack-free.
type DynamicSpec struct {
	// Name labels the experiment in reports.
	Name string
	// Schedule generates the per-trial evolving topology from the
	// trial's RNG. Required.
	Schedule func(rng *rand.Rand) (*dynamic.EdgeSchedule, error)
	// T is the Byzantine bound handed to NECTAR nodes and tested by the
	// ground truth (κ ≤ T).
	T int
	// Trials is the number of repetitions.
	Trials int
	// Seed derives every trial's randomness.
	Seed int64
	// SchemeName selects the signature scheme ("" = "hmac", the harness
	// default).
	SchemeName string
	// Epochs is the number of detection epochs per trial (0 = cover the
	// schedule horizon plus one fresh epoch).
	Epochs int
}

// validate checks the spec and returns a copy with defaults resolved.
func (s DynamicSpec) validate() (DynamicSpec, error) {
	if s.Schedule == nil {
		return s, fmt.Errorf("harness: Schedule generator is required")
	}
	if s.SchemeName == "" {
		s.SchemeName = "hmac"
	}
	return s, checkCounts(s.SchemeName, count{"Trials", s.Trials, true}, count{"T", s.T, false},
		count{"Epochs", s.Epochs, false})
}

// DynamicTrial is the scored outcome of one dynamic run.
type DynamicTrial struct {
	// Epochs is the number of detection epochs executed.
	Epochs int
	// Flips / Detected count ground-truth partitionability transitions
	// and how many of them all correct nodes followed before the next
	// flip (or the end of the run).
	Flips    int
	Detected int
	// MeanLatency is the mean detection latency in epochs over detected
	// flips (0 when there were none).
	MeanLatency float64
	// AgreementRate is the fraction of epochs in which all correct,
	// present nodes decided the same value (dynamic.EpochReport.Agreement).
	AgreementRate float64
	// AccuracyRate is the fraction of (epoch, correct node) verdicts
	// matching the epoch's ground truth.
	AccuracyRate float64
	// MeanBytesPerNode is the mean per-epoch unicast bytes sent per
	// node.
	MeanBytesPerNode float64
	// MeanActiveRounds is the mean number of engine rounds actually
	// executed per epoch (quiescence early exit and re-arm included).
	MeanActiveRounds float64
}

// DynamicResult aggregates all trials of a DynamicSpec.
type DynamicResult struct {
	Spec   DynamicSpec
	Trials []DynamicTrial
	// Agreement, Accuracy, BytesPerNode and ActiveRounds summarize the
	// per-trial series; Latency summarizes mean detection latency over
	// the trials that detected at least one flip; DetectedRate is the
	// per-trial fraction of flips detected (trials without flips are
	// excluded from its sample).
	Agreement    stats.Summary
	Accuracy     stats.Summary
	Latency      stats.Summary
	DetectedRate stats.Summary
	BytesPerNode stats.Summary
	ActiveRounds stats.Summary
}

func runDynamicTrial(spec *DynamicSpec, trial, engineWorkers int) (DynamicTrial, error) {
	trialSeed := trialSeedOf(spec.Seed, trial)
	rng := rand.New(rand.NewSource(trialSeed))
	sched, err := spec.Schedule(rng)
	if err != nil {
		return DynamicTrial{}, err
	}
	build, release := NectarEpochs(NectarConfig{T: spec.T}, spec.SchemeName, nil, nil)
	defer release()
	res, err := dynamic.Run(dynamic.Config{
		Schedule: sched,
		T:        spec.T,
		Seed:     trialSeed ^ 0x5F5F5F5F,
		Epochs:   spec.Epochs,
		Workers:  engineWorkers,
	}, build)
	if err != nil {
		return DynamicTrial{}, err
	}
	return scoreDynamic(res), nil
}

// NectarEpochs returns the dynamic.BuildFn of a NECTAR run over an evolving
// topology — SimulateDynamic's and RunDynamic's — and the release its caller
// defers. Each epoch is a fresh BuildNectar of cfg on the epoch's graph,
// absent set and seed, under the scheme schemeName (which the caller has
// checked) keyed by that seed: a verification cache must never outlive its
// key set. Finish decides through one decision memo for the whole run (the
// predicate is scheme-independent), with kappa_eval events to tr, and hands
// the outcomes to decided when it is non-nil. release frees what a failed
// run leaves built but unfinished — the epochs dynamic.Run never finishes.
func NectarEpochs(cfg NectarConfig, schemeName string, tr obs.Tracer, decided func([]nectar.Outcome)) (build dynamic.BuildFn, release func()) {
	dc := nectar.NewDecideCache()
	// The runs built and not yet finished, oldest first: dynamic.Run builds
	// and finishes each in epoch order, so Finish always takes unfinished[0].
	var unfinished []*NectarRun
	build = func(epoch int, g *graph.Graph, absent ids.Set, seed int64) (*dynamic.Stack, error) {
		scheme := sig.ByName(schemeName, g.N(), seed)
		c := cfg
		c.Graph, c.Scheme, c.Seed, c.Absent = g, scheme, seed, absent
		run, err := BuildNectar(c)
		if err != nil {
			return nil, err
		}
		unfinished = append(unfinished, run)
		return &dynamic.Stack{
			Protos: run.Protos,
			Finish: func() map[ids.NodeID]dynamic.Verdict {
				outs, _ := run.Finish(dc, tr, epoch)
				unfinished[0], unfinished = nil, unfinished[1:] // the backing array must not keep its nodes alive
				out := make(map[ids.NodeID]dynamic.Verdict, len(outs))
				for i, o := range outs {
					if o.Decision != nectar.Undecided {
						out[ids.NodeID(i)] = dynamic.Verdict{
							Partitionable: o.Decision == nectar.Partitionable,
							Key:           o.Decision.String(),
						}
					}
				}
				if decided != nil {
					decided(outs)
				}
				return out
			},
		}, nil
	}
	release = func() {
		for _, run := range unfinished {
			run.Release()
		}
		unfinished = nil
	}
	return build, release
}

// scoreDynamic folds a dynamic run into per-trial metrics.
func scoreDynamic(res *dynamic.Result) DynamicTrial {
	t := DynamicTrial{Epochs: len(res.Epochs)}
	var agreeEpochs int
	var verdicts, accurate int
	var bytesSum float64
	var activeSum int
	for _, ep := range res.Epochs {
		if ep.Agreement {
			agreeEpochs++
		}
		for _, v := range ep.Verdicts {
			verdicts++
			if v.Partitionable == ep.TruthPartitionable {
				accurate++
			}
		}
		var epochBytes int64
		for _, b := range ep.Metrics.BytesSent {
			epochBytes += b
		}
		// Per *present* node, matching the static harness's
		// per-participating-node accounting: absent nodes send nothing
		// and must not dilute the mean as churn rises.
		if present := len(ep.Metrics.BytesSent) - len(ep.Absent); present > 0 {
			bytesSum += float64(epochBytes) / float64(present)
		}
		activeSum += ep.Metrics.ActiveRounds
	}
	if t.Epochs > 0 {
		t.AgreementRate = float64(agreeEpochs) / float64(t.Epochs)
		t.MeanBytesPerNode = bytesSum / float64(t.Epochs)
		t.MeanActiveRounds = float64(activeSum) / float64(t.Epochs)
	}
	if verdicts > 0 {
		t.AccuracyRate = float64(accurate) / float64(verdicts)
	}
	mean, detected, undetected := res.DetectionLatency()
	t.Flips = detected + undetected
	t.Detected = detected
	t.MeanLatency = mean
	return t
}

func aggregateDynamic(spec DynamicSpec, trials []DynamicTrial) *DynamicResult {
	pick := func(f func(DynamicTrial) (float64, bool)) []float64 {
		var xs []float64
		for _, t := range trials {
			if x, ok := f(t); ok {
				xs = append(xs, x)
			}
		}
		return xs
	}
	always := func(f func(DynamicTrial) float64) []float64 {
		return pick(func(t DynamicTrial) (float64, bool) { return f(t), true })
	}
	return &DynamicResult{
		Spec:      spec,
		Trials:    trials,
		Agreement: stats.Summarize(always(func(t DynamicTrial) float64 { return t.AgreementRate })),
		Accuracy:  stats.Summarize(always(func(t DynamicTrial) float64 { return t.AccuracyRate })),
		Latency: stats.Summarize(pick(func(t DynamicTrial) (float64, bool) {
			return t.MeanLatency, t.Detected > 0
		})),
		DetectedRate: stats.Summarize(pick(func(t DynamicTrial) (float64, bool) {
			if t.Flips == 0 {
				return 0, false
			}
			return float64(t.Detected) / float64(t.Flips), true
		})),
		BytesPerNode: stats.Summarize(always(func(t DynamicTrial) float64 { return t.MeanBytesPerNode })),
		ActiveRounds: stats.Summarize(always(func(t DynamicTrial) float64 { return t.MeanActiveRounds })),
	}
}
