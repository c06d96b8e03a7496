package nectar

import (
	"fmt"
	"testing"

	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// decideCacheHits pins DecideCacheHits of every case of the engine-
// equivalence matrix, in equivalenceCases order, per seed: a hit for every
// correct node after the first to decide on each distinct view.
var decideCacheHits = map[int64][]int64{
	1: {11, 8, 10, 9, 10, 10, 10, 9, 8, 8, 13, 11, 12, 11, 12, 12, 12, 11, 11, 11, 17, 15, 16, 15, 16, 16, 16, 15, 15, 15, 12, 8, 11, 10, 9, 9, 9, 10, 9, 8, 10},
	7: {11, 8, 10, 9, 10, 10, 10, 9, 8, 8, 13, 11, 12, 11, 12, 12, 12, 11, 11, 11, 17, 15, 16, 15, 16, 16, 16, 15, 15, 15, 12, 8, 11, 10, 9, 9, 9, 10, 9, 8, 10},
}

// builtRun assembles and runs cfg as Simulate does, stopping short of the
// decision phase.
func builtRun(t *testing.T, cfg SimulationConfig) *harness.NectarRun {
	t.Helper()
	n := cfg.Graph.N()
	blocked, err := checkByzantine(n, cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		t.Fatal(err)
	}
	run, err := harness.BuildNectar(harness.NectarConfig{
		Graph: cfg.Graph, T: cfg.T, Scheme: sig.ByName(cfg.SchemeName, n, cfg.Seed),
		Seed: cfg.Seed, Byzantine: cfg.Byzantine, Blocked: blocked,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rounds.Run(rounds.Config{Graph: cfg.Graph, Rounds: n - 1, Seed: cfg.Seed}, run.Protos); err != nil {
		run.Release()
		t.Fatal(err)
	}
	return run
}

// TestDecideSharedMatchesDecide: deciding through the run's shared memo is
// the reference decision, node for node, on every behaviour × topology of
// the engine-equivalence matrix — the attacks that leave correct nodes with
// different views included. Each node's outcome equals Decide() on the same
// node of a twin run, whose view is checked equal to the pre-decide view;
// the memo's hit count is the one pinned; and every node keeps its view: a
// node's View() after deciding is its view before, and changing that copy
// changes no other node's.
func TestDecideSharedMatchesDecide(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		var hits []int64
		for i, tc := range equivalenceCases(t, seed) {
			label := fmt.Sprintf("seed %d %s", seed, tc.name)
			shared, twin := builtRun(t, tc.cfg), builtRun(t, tc.cfg)
			var correct []NodeID
			pre := make([]*Graph, tc.cfg.Graph.N())
			for v := range shared.Nodes {
				id := NodeID(v)
				if _, byz := tc.cfg.Byzantine[id]; byz {
					continue
				}
				correct = append(correct, id)
				pre[id] = shared.Nodes[id].View()
				if !twin.Nodes[id].View().Equal(pre[id]) {
					t.Fatalf("%s: node %v: twin runs discovered different views", label, id)
				}
			}
			outs, fastPath := shared.Finish(NewDecideCache(), nil, 0)
			for _, id := range correct {
				if want := twin.Nodes[id].Decide(); outs[id] != want {
					t.Errorf("%s: node %v decided %+v through the memo, %+v by itself", label, id, outs[id], want)
				}
			}
			twin.Release()
			hits = append(hits, fastPath.DecideCacheHits)
			if want := decideCacheHits[seed]; i < len(want) && fastPath.DecideCacheHits != want[i] {
				t.Errorf("%s: %d decide-cache hits, want %d", label, fastPath.DecideCacheHits, want[i])
			}
			for _, id := range correct {
				v := shared.Nodes[id].View()
				if !v.Equal(pre[id]) {
					t.Fatalf("%s: node %v: View after deciding differs from the view before", label, id)
				}
				e := v.Edges()[0]
				v.RemoveEdge(e.U, e.V)
				v.AddEdge(id, NodeID((int(id)+tc.cfg.Graph.N()/2)%tc.cfg.Graph.N()))
				for _, other := range correct {
					if !shared.Nodes[other].View().Equal(pre[other]) {
						t.Fatalf("%s: changing node %v's View changed node %v's", label, id, other)
					}
				}
			}
		}
		t.Logf("seed %d: decide-cache hits %v", seed, hits)
		if want := decideCacheHits[seed]; len(want) != len(hits) {
			t.Errorf("seed %d: %d cases, %d pinned", seed, len(hits), len(want))
		}
	}
}
