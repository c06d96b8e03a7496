package nectar

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// countingScheme counts the real Verify calls made under a scheme; its
// signers and BindsMessage are the wrapped scheme's.
type countingScheme struct {
	sig.Scheme
	calls *atomic.Int64
}

func (s countingScheme) Verifier() sig.Verifier {
	return countingVerifier{s.Scheme.Verifier(), s.calls}
}

type countingVerifier struct {
	sig.Verifier
	calls *atomic.Int64
}

func (v countingVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	v.calls.Add(1)
	return v.Verifier.Verify(signer, msg, sg)
}

// countedRun runs cfg as Simulate assembles it — at one worker, over
// cfg.SchemeName wrapped in a scheme that counts Verify — checks the result
// against Simulate's own, and returns the Verify calls made building the
// nodes and running the flood.
func countedRun(t *testing.T, name string, cfg SimulationConfig) (build, run int64) {
	t.Helper()
	want, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var calls atomic.Int64
	if _, err := checkByzantine(cfg.Graph.N(), cfg.T, cfg.Byzantine, nil); err != nil {
		t.Fatal(err)
	}
	built, err := harness.BuildNectar(harness.NectarConfig{
		Graph: cfg.Graph, T: cfg.T, Seed: cfg.Seed, Byzantine: cfg.Byzantine,
		Scheme: countingScheme{sig.ByName(cfg.SchemeName, cfg.Graph.N(), cfg.Seed), &calls},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	build = calls.Load()
	m, err := rounds.Run(rounds.Config{Graph: cfg.Graph, Rounds: cfg.Graph.N() - 1, Seed: cfg.Seed, Workers: 1}, built.Protos)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	outs, fastPath := built.Finish(NewDecideCache(), nil, 0)
	got := &SimulationResult{BytesSent: m.BytesSent, BytesBroadcast: m.BytesBroadcast, ActiveRounds: m.ActiveRounds, FastPath: fastPath}
	got.Outcomes, got.Agreement, got.Decision, got.Confirmed = tally(outs)
	assertSimEquivalent(t, name, want, got)
	if !reflect.DeepEqual(got.FastPath, want.FastPath) {
		t.Errorf("%s: fast-path counters %+v, Simulate's %+v", name, got.FastPath, want.FastPath)
	}
	return build, calls.Load() - build
}

// TestVerifyCountPinned: the verification memo may only ever save real
// signature verifications. Each hmac row is a counted Simulate run, and its
// count may not exceed the one recorded for the per-signature memo the
// record memo replaced (DESIGN.md §9). A row over its ceiling means the memo
// cost a verification. The slim row pins the unbound scheme's count
// exactly: its chains are checked in the signer walk, so the flood makes no
// Verify call, and only NewNode's proof checks remain — two per incident
// edge.
func TestVerifyCountPinned(t *testing.T) {
	const seed = 3
	harary, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := BridgeScenario(35, 2, 6, 1.8, 2)(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		g    *Graph
		byz  []NodeID
	}{
		{"harary", harary, []NodeID{0, 6}},
		{"bridge", bridge.Graph, bridge.Byz.Sorted()},
	}
	ceiling := map[string]int64{ // real Verify calls under the per-signature memo
		"harary/honest": 208, "harary/fakeedges": 206, "harary/equivocate": 200,
		"bridge/honest": 2146, "bridge/fakeedges": 2153, "bridge/equivocate": 2235,
	}
	for _, topo := range topos {
		for _, beh := range []AttackKind{"", AttackFakeEdges, AttackEquivocate} {
			name := topo.name + "/honest"
			cfg := SimulationConfig{Graph: topo.g, T: 2, Seed: seed, SchemeName: "hmac", Workers: 1}
			if beh != "" {
				name = topo.name + "/" + string(beh)
				cfg.Byzantine = make(map[NodeID]AttackKind)
				for _, b := range topo.byz {
					cfg.Byzantine[b] = beh
				}
			}
			build, run := countedRun(t, name, cfg)
			calls := build + run
			t.Logf("%s: %d real verifications (ceiling %d)", name, calls, ceiling[name])
			if calls > ceiling[name] {
				t.Errorf("%s: %d real verifications, more than the %d recorded", name, calls, ceiling[name])
			}
		}
	}

	tree, err := KaryTree(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	build, run := countedRun(t, "tree/slim", SimulationConfig{Graph: tree, T: 1, Seed: seed, SchemeName: "slim", Workers: 1})
	t.Logf("tree/slim: %d Verify calls building, %d flooding", build, run)
	if want := int64(4 * tree.M()); build != want || run != 0 {
		t.Errorf("tree/slim: %d Verify calls building and %d flooding, want %d (two per incident edge) and 0", build, run, want)
	}
}
