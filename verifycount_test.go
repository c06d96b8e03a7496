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

// TestVerifyCountPinned: the signers' boards and the proof ledger may only
// ever save real signature verifications (DESIGN.md §9). Each row is a
// counted Simulate run. An honest run is pinned exactly: building the nodes
// checks each proof once, two calls per edge — the second endpoint takes
// the first's verdict from the ledger — and the flood makes one call per
// node — the self-check of its first signature — since every message a
// correct node checks was posted by the correct node that sent it, under
// hmac and ed25519 alike. A Byzantine row may not exceed its ceiling, the
// count measured with the boards and the ledger: a chain a Byzantine node
// sent is verified by each of its recipients. The slim row pins the unbound
// scheme: its chains are checked in the signer walk, so the flood makes no
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
	ceiling := map[string]int64{ // real Verify calls, build and flood, with the boards and the ledger
		"harary/fakeedges": 84, "harary/equivocate": 60,
		"bridge/fakeedges": 658, "bridge/equivocate": 559,
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
			if beh == "" {
				honestCount(t, name, topo.g, build, run)
				continue
			}
			calls := build + run
			t.Logf("%s: %d real verifications (ceiling %d)", name, calls, ceiling[name])
			if calls > ceiling[name] {
				t.Errorf("%s: %d real verifications, more than the %d recorded", name, calls, ceiling[name])
			}
		}
	}

	small, err := Harary(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	build, run := countedRun(t, "harary8/ed25519", SimulationConfig{Graph: small, T: 1, Seed: seed, SchemeName: "ed25519", Workers: 1})
	honestCount(t, "harary8/ed25519", small, build, run)

	tree, err := KaryTree(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	build, run = countedRun(t, "tree/slim", SimulationConfig{Graph: tree, T: 1, Seed: seed, SchemeName: "slim", Workers: 1})
	t.Logf("tree/slim: %d Verify calls building, %d flooding", build, run)
	if want := int64(4 * tree.M()); build != want || run != 0 {
		t.Errorf("tree/slim: %d Verify calls building and %d flooding, want %d (two per incident edge) and 0", build, run, want)
	}
}

// honestCount checks an honest run's Verify calls under a binding scheme:
// 2·m building (each proof checked once, through the ledger) and n flooding.
func honestCount(t *testing.T, name string, g *Graph, build, run int64) {
	t.Helper()
	t.Logf("%s: %d Verify calls building, %d flooding", name, build, run)
	if wantBuild, wantRun := int64(2*g.M()), int64(g.N()); build != wantBuild || run != wantRun {
		t.Errorf("%s: %d Verify calls building and %d flooding, want %d (two per edge) and %d (one per node)", name, build, run, wantBuild, wantRun)
	}
}
