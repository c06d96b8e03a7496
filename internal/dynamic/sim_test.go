package dynamic

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/topology"
)

// oracleProto is a toy detector: it inspects the epoch-start graph
// directly (no messages) and votes κ ≤ t after a configurable number of
// lagging epochs, letting the tests pin the latency bookkeeping without
// NECTAR in the loop.
type oracleProto struct{}

func (oracleProto) Emit(int) []rounds.Send          { return nil }
func (oracleProto) Deliver(int, ids.NodeID, []byte) {}
func (oracleProto) Quiescent() bool                 { return true }

// buildOracle answers with the truth delayed by lag epochs: for the first
// lag epochs after a flip it still reports the stale verdict.
func buildOracle(t int, lag int) BuildFn {
	var history []bool
	return func(epoch int, g *graph.Graph, absent ids.Set, seed int64) (*Stack, error) {
		truth := presentKappa(g, absent) <= t
		history = append(history, truth)
		answer := history[0]
		if idx := len(history) - 1 - lag; idx >= 0 {
			answer = history[idx]
		}
		protos := make([]rounds.Protocol, g.N())
		for i := range protos {
			protos[i] = oracleProto{}
		}
		return &Stack{
			Protos: protos,
			Finish: func() map[ids.NodeID]Verdict {
				out := make(map[ids.NodeID]Verdict, g.N())
				for v := 0; v < g.N(); v++ {
					if !absent.Has(ids.NodeID(v)) {
						out[ids.NodeID(v)] = Verdict{Partitionable: answer, Key: fmt.Sprint(answer)}
					}
				}
				return out
			},
		}, nil
	}
}

func TestRunDefaultsCoverScheduleHorizon(t *testing.T) {
	base := topology.Ring(6) // n-1 = 5 rounds per epoch
	s, err := PartitionHeal(base, 11, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Schedule: s, T: 1, Seed: 1}, buildOracle(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochRounds != 5 {
		t.Errorf("EpochRounds = %d, want 5", res.EpochRounds)
	}
	// Horizon 21, epoch rounds 5 -> 21/5+1 = 5 epochs.
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs = %d, want 5", len(res.Epochs))
	}
	for e, rep := range res.Epochs {
		if rep.StartRound != e*5+1 {
			t.Errorf("epoch %d StartRound = %d, want %d", e, rep.StartRound, e*5+1)
		}
	}
}

func TestRunDefaultEpochsCoverMidEpochFinalEvent(t *testing.T) {
	// Ring of 6 (R=5): the cut at round 8 lands mid-epoch 1 (rounds
	// 6-10), so epoch 1's start-of-epoch truth predates it. The default
	// must still schedule epoch 2 (start round 11 > 8), which scores the
	// partitioned graph and records the flip.
	base := topology.Ring(6)
	s, err := PartitionHeal(base, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Schedule: s, T: 1, Seed: 1}, buildOracle(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3 (one past the mid-epoch event)", len(res.Epochs))
	}
	last := res.Epochs[len(res.Epochs)-1]
	if !last.TruthPartitionable {
		t.Error("final epoch must score the post-cut graph")
	}
	if len(res.Flips) != 1 {
		t.Errorf("flips = %d, want 1", len(res.Flips))
	}
}

func TestGroundTruthFlipsAndZeroLatencyDetection(t *testing.T) {
	// Ring of 6 with T=1: κ=2 -> NOT partitionable. The cut at round 11
	// (epoch 2's first round) drops to κ=0; the heal at round 21 (epoch
	// 4) restores κ=2.
	base := topology.Ring(6)
	s, err := PartitionHeal(base, 11, 21)
	if err != nil {
		t.Fatal(err)
	}
	build, kappas := recordKappa(buildOracle(1, 0))
	res, err := Run(Config{Schedule: s, T: 1, Seed: 1}, build)
	if err != nil {
		t.Fatal(err)
	}
	checkKappa(t, res, 1, *kappas)
	wantTruth := []bool{false, false, true, true, false}
	for e, rep := range res.Epochs {
		if rep.TruthPartitionable != wantTruth[e] {
			t.Errorf("epoch %d truth = %v, want %v (kappa %d)", e, rep.TruthPartitionable, wantTruth[e], rep.Kappa)
		}
		if !rep.Agreement {
			t.Errorf("epoch %d: oracle nodes must agree", e)
		}
	}
	if len(res.Flips) != 2 {
		t.Fatalf("flips = %d, want 2 (%+v)", len(res.Flips), res.Flips)
	}
	for _, f := range res.Flips {
		if f.Latency != 0 {
			t.Errorf("flip at epoch %d: latency = %d, want 0 for the exact oracle", f.Epoch, f.Latency)
		}
	}
	mean, detected, undetected := res.DetectionLatency()
	if mean != 0 || detected != 2 || undetected != 0 {
		t.Errorf("DetectionLatency() = (%v, %d, %d), want (0, 2, 0)", mean, detected, undetected)
	}
}

// TestGroundTruthUnderNodeChurn holds every epoch's κ to the present
// subgraph's connectivity when nodes are absent at epoch starts.
func TestGroundTruthUnderNodeChurn(t *testing.T) {
	base, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := PoissonChurn(base, 0.05, 11, 8*11, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	build, kappas := recordKappa(buildOracle(2, 0))
	res, err := Run(Config{Schedule: s, T: 2, Seed: 1, Epochs: 8}, build)
	if err != nil {
		t.Fatal(err)
	}
	checkKappa(t, res, 2, *kappas)
	sawAbsent := false
	for _, rep := range res.Epochs {
		sawAbsent = sawAbsent || len(rep.Absent) > 0
	}
	if !sawAbsent {
		t.Error("no node was absent at an epoch start; pick another seed")
	}
}

// recordKappa wraps build to record presentKappa of each epoch's start
// graph and absent set, in epoch order.
func recordKappa(build BuildFn) (BuildFn, *[]int) {
	var kappas []int
	return func(epoch int, g *graph.Graph, absent ids.Set, seed int64) (*Stack, error) {
		kappas = append(kappas, presentKappa(g, absent))
		return build(epoch, g, absent, seed)
	}, &kappas
}

// checkKappa requires each epoch's reported κ and truth to be the exact
// κ ≤ T test on its start state, and one exact evaluation per epoch.
func checkKappa(t *testing.T, res *Result, tByz int, want []int) {
	t.Helper()
	if len(want) != len(res.Epochs) {
		t.Fatalf("%d builds for %d epochs", len(want), len(res.Epochs))
	}
	for e, rep := range res.Epochs {
		if rep.Kappa != want[e] || rep.TruthPartitionable != (want[e] <= tByz) {
			t.Errorf("epoch %d: Kappa = %d, truth %v; want presentKappa = %d against T = %d",
				e, rep.Kappa, rep.TruthPartitionable, want[e], tByz)
		}
	}
	if res.KappaStats.ExactEvals != len(res.Epochs) {
		t.Errorf("ExactEvals = %d, want one per epoch (%d)", res.KappaStats.ExactEvals, len(res.Epochs))
	}
}

func TestLaggingDetectorReportsPositiveLatency(t *testing.T) {
	base := topology.Ring(6)
	// Cut at epoch 2, no heal: one flip, detector lags one epoch.
	s, err := PartitionHeal(base, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Schedule: s, T: 1, Seed: 1, Epochs: 5}, buildOracle(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 1 {
		t.Fatalf("flips = %d, want 1", len(res.Flips))
	}
	f := res.Flips[0]
	if f.Epoch != 2 || f.Latency != 1 || f.DetectedEpoch != 3 {
		t.Errorf("flip = %+v, want epoch 2 detected at 3 (latency 1)", f)
	}
}

func TestUndetectedFlipWhenRunEndsFirst(t *testing.T) {
	base := topology.Ring(6)
	s, err := PartitionHeal(base, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only 3 epochs and a lag of 5: the run ends before detection.
	res, err := Run(Config{Schedule: s, T: 1, Seed: 1, Epochs: 3}, buildOracle(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 1 {
		t.Fatalf("flips = %d, want 1", len(res.Flips))
	}
	if res.Flips[0].Latency != -1 || res.Flips[0].DetectedEpoch != -1 {
		t.Errorf("flip = %+v, want undetected", res.Flips[0])
	}
	_, detected, undetected := res.DetectionLatency()
	if detected != 0 || undetected != 1 {
		t.Errorf("DetectionLatency counts = (%d, %d), want (0, 1)", detected, undetected)
	}
}

func TestPresentKappaIgnoresAbsentNodes(t *testing.T) {
	g := topology.Complete(5)
	if k := presentKappa(g, ids.NewSet()); k != 4 {
		t.Errorf("K5 kappa = %d, want 4", k)
	}
	if k := presentKappa(g, ids.NewSet(0)); k != 3 {
		t.Errorf("K5 minus one kappa = %d, want 3", k)
	}
	if k := presentKappa(g, ids.NewSet(0, 1, 2, 3)); k != 0 {
		t.Errorf("single present vertex kappa = %d, want 0", k)
	}
	// A churned-out cut vertex: star with absent center.
	star := topology.Star(5)
	if k := presentKappa(star, ids.NewSet(0)); k != 0 {
		t.Errorf("star minus center kappa = %d, want 0", k)
	}
}

func TestRunValidation(t *testing.T) {
	base := topology.Ring(4)
	if _, err := Run(Config{Schedule: Static(base), T: 1}, nil); err == nil {
		t.Error("nil build accepted")
	}
	if _, err := Run(Config{Schedule: nil, T: 1}, buildOracle(1, 0)); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := Run(Config{Schedule: Static(base), T: -1}, buildOracle(1, 0)); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := Run(Config{Schedule: Static(base), T: 1, Workers: -1}, buildOracle(1, 0)); err == nil {
		t.Error("negative Workers accepted")
	}
}
