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
	return countedRunWith(t, name, cfg, want, 1, func(s sig.Scheme, calls *atomic.Int64) sig.Scheme { return countingScheme{s, calls} })
}

// countedRunWith is countedRun at an engine of workers workers, under the
// scheme wrap makes to count calls into its counter, checked against want,
// Simulate's result for cfg.
func countedRunWith(t *testing.T, name string, cfg SimulationConfig, want *SimulationResult, workers int, wrap func(sig.Scheme, *atomic.Int64) sig.Scheme) (build, run int64) {
	t.Helper()
	var calls atomic.Int64
	blocked, err := checkByzantine(cfg.Graph.N(), cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		t.Fatal(err)
	}
	built, err := harness.BuildNectar(harness.NectarConfig{
		Graph: cfg.Graph, T: cfg.T, Seed: cfg.Seed, Byzantine: cfg.Byzantine, Blocked: blocked,
		Scheme:        wrap(sig.ByName(cfg.SchemeName, cfg.Graph.N(), cfg.Seed), &calls),
		NoVerifyCache: cfg.noVerifyCache,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	build = calls.Load()
	m, err := rounds.Run(rounds.Config{Graph: cfg.Graph, Rounds: cfg.Graph.N() - 1, Seed: cfg.Seed, Workers: workers}, built.Protos)
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

// signingScheme counts the signatures made under a scheme, through either
// form of its signers.
type signingScheme struct {
	sig.Scheme
	calls *atomic.Int64
}

func (s signingScheme) SignerFor(id NodeID) sig.Signer {
	return signCounter{s.Scheme.SignerFor(id), s.calls}
}

type signCounter struct {
	sig.Signer
	calls *atomic.Int64
}

func (s signCounter) Sign(msg []byte) []byte {
	s.calls.Add(1)
	return s.Signer.Sign(msg)
}

func (s signCounter) AppendSign(dst, msg []byte) []byte {
	s.calls.Add(1)
	return s.Signer.(sig.AppendSigner).AppendSign(dst, msg)
}

// TestSignCountPinned: every correct, present node leaves each relay's
// signature to the first neighbour that checks the relay (DESIGN.md §9),
// so a relay every recipient discards from its edge header is never
// signed — Byzantine neighbours included, whose attacks sign what they
// keep when their inner node reads it. Each row is a counted Simulate run.
// Building the nodes signs each proof, two signatures per edge, and the
// flood signs each round-1 announcement, one per node and incident edge,
// plus what the row pins: the relays read, the same at 1, 2 and 4 engine
// workers, where the cache-less reference signs every relay it emits —
// and, on the bridge under fakeedges, three signatures per forged edge.
// The bridge rows run fig8-sweep's three NECTAR attacks on one graph of
// its family. The slim row's scheme does not bind the message, so it has
// no boards and nothing is deferred: the two counts are equal.
func TestSignCountPinned(t *testing.T) {
	dense, err := Harary(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	drone, _, err := Drone(60, 2.5, 1.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := KaryTree(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := BridgeScenario(35, 2, 6, 1.8, 2)(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	attack := func(a AttackKind) map[NodeID]AttackKind {
		byz := make(map[NodeID]AttackKind)
		for b := range bridge.Byz {
			byz[b] = a
		}
		return byz
	}
	blocked := make(map[NodeID][]NodeID)
	for b, set := range bridge.Blocked {
		blocked[b] = set.Sorted()
	}
	count := func(s sig.Scheme, calls *atomic.Int64) sig.Scheme { return signingScheme{s, calls} }
	for _, row := range []struct {
		name            string
		g               *Graph
		scheme          string
		byz             map[NodeID]AttackKind
		blocked         map[NodeID][]NodeID
		eager, deferred int64 // flooding signatures past the announcements: every relay emitted, and those read
	}{
		{"harary10-40/ed25519", dense, "ed25519", nil, nil, 7600, 3309},
		{"drone60/hmac", drone, "hmac", nil, nil, 34452, 10407},
		{"tree40/slim", tree, "slim", nil, nil, 456, 456},
		{"bridge35/splitbrain", bridge.Graph, "hmac", attack(AttackSplitBrain), blocked, 6195, 994},
		{"bridge35/fakeedges", bridge.Graph, "hmac", attack(AttackFakeEdges), nil, 8588, 1192},
		{"bridge35/equivocate", bridge.Graph, "hmac", attack(AttackEquivocate), nil, 8547, 1222},
	} {
		cfg := SimulationConfig{Graph: row.g, T: 2, Seed: 1, SchemeName: row.scheme, Byzantine: row.byz, Blocked: row.blocked}
		proofs, announcements := int64(2*row.g.M()), int64(2*row.g.M())
		ref := cfg
		ref.noVerifyCache = true
		want, err := Simulate(ref)
		if err != nil {
			t.Fatal(err)
		}
		build, run := countedRunWith(t, row.name+"/uncached", ref, want, 1, count)
		t.Logf("%s: %d signatures building, %d flooding without a cache", row.name, build, run)
		if build != proofs || run != announcements+row.eager {
			t.Errorf("%s, no cache: %d signatures building and %d flooding, want %d and %d", row.name, build, run, proofs, announcements+row.eager)
		}
		if want, err = Simulate(cfg); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			build, run := countedRunWith(t, row.name, cfg, want, workers, count)
			t.Logf("%s at %d workers: %d signatures building, %d flooding", row.name, workers, build, run)
			if build != proofs || run != announcements+row.deferred {
				t.Errorf("%s at %d workers: %d signatures building and %d flooding, want %d and %d", row.name, workers, build, run, proofs, announcements+row.deferred)
			}
		}
	}
}
