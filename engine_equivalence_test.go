package nectar

// Equivalence properties: quiescence early exit, the verification cache, the
// duplicate-first check order and parallel routing are pure wall-clock
// optimizations — for every seeded scenario the decisions, outcomes, and
// per-node byte counts must be byte-identical to the references they
// replace. The matrix covers the scenario shapes of the evaluation (ring,
// drone scatter, hierarchical tree of cliques, Byzantine bridge) and a k-ary
// tree, whose leaves accept without relaying, under every Byzantine
// behaviour Simulate supports and several seeds.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// simCase is one topology + Byzantine placement under test.
type simCase struct {
	name string
	cfg  SimulationConfig
}

// equivalenceCases builds the scenario matrix for one seed.
func equivalenceCases(t *testing.T, seed int64) []simCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	var cases []simCase
	add := func(name string, g *Graph, byz map[NodeID]AttackKind, blocked map[NodeID][]NodeID) {
		cases = append(cases, simCase{name: name, cfg: SimulationConfig{
			Graph:      g,
			T:          2,
			Seed:       seed,
			SchemeName: "hmac",
			Byzantine:  byz,
			Blocked:    blocked,
		}})
	}

	ring := Ring(12)
	scatter, _, err := Drone(14, 0, 1.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The hierarchical family of the large-n benchmarks, sized so κ = 3
	// straddles T = 2 (b = 3 matchings between 6-cliques).
	tree, err := TreeOfCliques(3, 6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Nine of its thirteen nodes are leaves, which accept every edge from
	// their one neighbor and relay none; b0 is the root, b1 = 6 a leaf.
	kary, err := KaryTree(3, 13)
	if err != nil {
		t.Fatal(err)
	}

	for _, topo := range []struct {
		name string
		g    *Graph
	}{{"ring", ring}, {"scatter", scatter}, {"tree", tree}, {"karytree", kary}} {
		n := topo.g.N()
		b0, b1 := NodeID(0), NodeID(n/2)
		// One side of the network for the split-brain behaviour.
		var half []NodeID
		for v := n / 2; v < n; v++ {
			half = append(half, NodeID(v))
		}
		add(topo.name+"/correct", topo.g, nil, nil)
		add(topo.name+"/crash", topo.g, map[NodeID]AttackKind{b0: AttackCrash, b1: AttackCrash}, nil)
		add(topo.name+"/splitbrain", topo.g,
			map[NodeID]AttackKind{b0: AttackSplitBrain},
			map[NodeID][]NodeID{b0: half})
		add(topo.name+"/fakeedges", topo.g, map[NodeID]AttackKind{b0: AttackFakeEdges, b1: AttackFakeEdges}, nil)
		add(topo.name+"/garbage", topo.g, map[NodeID]AttackKind{b0: AttackGarbage}, nil)
		add(topo.name+"/stale", topo.g, map[NodeID]AttackKind{b0: AttackStale}, nil)
		add(topo.name+"/equivocate", topo.g, map[NodeID]AttackKind{b0: AttackEquivocate}, nil)
		add(topo.name+"/omitown", topo.g, map[NodeID]AttackKind{b0: AttackOmitOwn, b1: AttackOmitOwn}, nil)
		add(topo.name+"/adaptive", topo.g, map[NodeID]AttackKind{b0: AttackAdaptive, b1: AttackAdaptive}, nil)
		add(topo.name+"/phased", topo.g, map[NodeID]AttackKind{b0: AttackPhased, b1: AttackPhased}, nil)
	}

	// The §V-D bridge attack: all correct-part communication crosses
	// split-brain Byzantine nodes.
	sc, err := BridgeScenario(14, 2, 6, 1.8, 2)(rng)
	if err != nil {
		t.Fatal(err)
	}
	byz := make(map[NodeID]AttackKind, sc.Byz.Len())
	blocked := make(map[NodeID][]NodeID, sc.Byz.Len())
	for _, b := range sc.Byz.Sorted() {
		byz[b] = AttackSplitBrain
		blocked[b] = sc.Blocked[b].Sorted()
	}
	add("bridge/splitbrain", sc.Graph, byz, blocked)
	return cases
}

// assertSimEquivalent fails the test unless two SimulationResults are
// byte-identical in every output the evaluation consumes.
func assertSimEquivalent(t *testing.T, label string, ref, got *SimulationResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcomes, ref.Outcomes) {
		t.Errorf("%s: outcomes diverge:\ngot: %+v\nref: %+v", label, got.Outcomes, ref.Outcomes)
	}
	if got.Decision != ref.Decision || got.Agreement != ref.Agreement || got.Confirmed != ref.Confirmed {
		t.Errorf("%s: decision diverges: got=%v/%v/%v ref=%v/%v/%v",
			label, got.Decision, got.Agreement, got.Confirmed,
			ref.Decision, ref.Agreement, ref.Confirmed)
	}
	if !reflect.DeepEqual(got.BytesSent, ref.BytesSent) {
		t.Errorf("%s: BytesSent diverge", label)
	}
	if !reflect.DeepEqual(got.BytesBroadcast, ref.BytesBroadcast) {
		t.Errorf("%s: BytesBroadcast diverge", label)
	}
	if got.ActiveRounds != ref.ActiveRounds {
		t.Errorf("%s: ActiveRounds diverge: got=%d ref=%d", label, got.ActiveRounds, ref.ActiveRounds)
	}
}

// referenceRow is one reference the default run is held to on every
// scenario of equivalenceCases.
type referenceRow struct {
	name  string
	mut   func(*SimulationConfig)
	seeds []int64
	// fullHorizon: the row runs every round of the horizon (DESIGN.md §6),
	// so its ActiveRounds is held to Rounds instead of to the default's.
	fullHorizon bool
	// fastPath: the fast-path counters must match too — only the rows
	// that change nothing but the schedule keep them.
	fastPath bool
	// wantHits: the row's verification cache must actually fire, not silently no-op.
	wantHits bool
}

// equivalenceRows are the references of the root matrix. The default is
// Simulate's production path: quiescence early exit, the verification cache,
// duplicates discarded before any signature work, GOMAXPROCS engine
// workers. Every row must match it in all assertSimEquivalent compares.
var equivalenceRows = []referenceRow{
	{name: "full-horizon", mut: func(c *SimulationConfig) { c.fullHorizon = true },
		seeds: []int64{1, 7, 42}, fullHorizon: true, wantHits: true},
	// The literal Alg. 1 check order and the cache-less reference (§2, §9);
	// uncached+paranoid is the slowest, most literal run.
	{name: "paranoid", mut: func(c *SimulationConfig) { c.paranoidVerify = true },
		seeds: []int64{1, 7}, wantHits: true},
	{name: "uncached", mut: func(c *SimulationConfig) { c.noVerifyCache = true },
		seeds: []int64{1, 7}},
	{name: "uncached+paranoid", mut: func(c *SimulationConfig) { c.noVerifyCache = true; c.paranoidVerify = true },
		seeds: []int64{1, 7}},
	// The cache's accounting is a function of the run, not of the schedule.
	{name: "workers-1", mut: func(c *SimulationConfig) { c.Workers = 1 },
		seeds: []int64{1, 7}, fastPath: true, wantHits: true},
	{name: "workers-2", mut: func(c *SimulationConfig) { c.Workers = 2 },
		seeds: []int64{1, 7}, fastPath: true, wantHits: true},
	{name: "workers-4", mut: func(c *SimulationConfig) { c.Workers = 4 },
		seeds: []int64{1, 7}, fastPath: true, wantHits: true},
}

// TestEngineV2EquivalenceProperty: quiescence early exit is a pure
// wall-clock optimization — the default run is byte-identical to the
// full-horizon row of equivalenceRows across the whole scenario matrix.
func TestEngineV2EquivalenceProperty(t *testing.T) {
	checkReferences(t, true)
}

// TestVerifyCacheEquivalenceProperty: the verification cache, the lazy
// header-first decode, the duplicate-first check order and parallel routing
// are pure wall-clock optimizations — the default run is byte-identical to
// every other row of equivalenceRows across the whole scenario matrix.
func TestVerifyCacheEquivalenceProperty(t *testing.T) {
	checkReferences(t, false)
}

// checkReferences holds the default run to the rows of equivalenceRows
// whose fullHorizon flag equals fullHorizon.
func checkReferences(t *testing.T, fullHorizon bool) {
	var rows []referenceRow
	for _, row := range equivalenceRows {
		if row.fullHorizon == fullHorizon {
			rows = append(rows, row)
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		if !slices.ContainsFunc(rows, func(r referenceRow) bool { return slices.Contains(r.seeds, seed) }) {
			continue
		}
		for _, tc := range equivalenceCases(t, seed) {
			got, err := Simulate(tc.cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tc.name, err)
			}
			if got.VerifyCacheHits == 0 {
				t.Errorf("seed %d %s: verify cache never hit", seed, tc.name)
			}
			if got.ActiveRounds > got.Rounds {
				t.Errorf("seed %d %s: ActiveRounds %d > horizon %d", seed, tc.name, got.ActiveRounds, got.Rounds)
			}
			for _, row := range rows {
				if !slices.Contains(row.seeds, seed) {
					continue
				}
				label := fmt.Sprintf("seed %d %s/%s", seed, tc.name, row.name)
				cfg := tc.cfg
				row.mut(&cfg)
				ref, err := Simulate(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if row.fullHorizon {
					if ref.ActiveRounds != ref.Rounds {
						t.Errorf("%s: exited early (%d/%d)", label, ref.ActiveRounds, ref.Rounds)
					}
					early := *ref
					early.ActiveRounds = got.ActiveRounds
					ref = &early
				}
				assertSimEquivalent(t, label, ref, got)
				if row.fastPath && ref.FastPath != got.FastPath {
					t.Errorf("%s: fast-path counters diverge: got %+v, ref %+v", label, got.FastPath, ref.FastPath)
				}
				if hit := ref.VerifyCacheHits > 0; hit != row.wantHits {
					t.Errorf("%s: VerifyCacheHits=%d, want hits=%v", label, ref.VerifyCacheHits, row.wantHits)
				}
			}
		}
	}
}

// TestVerifyCacheFollowsTheScheme: the cache is consulted only when the
// scheme's signatures bind the message (DESIGN.md §9) — decided from the
// scheme, not from a knob. The unbound slim scheme makes zero cache checks and
// matches its uncached run byte for byte; the real schemes still hit.
func TestVerifyCacheFollowsTheScheme(t *testing.T) {
	for _, scheme := range []string{"ed25519", "hmac", "slim"} {
		cfg := equivalenceCases(t, 1)[0].cfg // ring, all correct
		cfg.SchemeName = scheme
		got, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		lookups := got.VerifyCacheHits + got.VerifyCacheMisses
		switch scheme {
		case "slim":
			if lookups != 0 {
				t.Errorf("%s: %d cache checks, want 0", scheme, lookups)
			}
		default:
			if got.VerifyCacheHits == 0 || got.VerifyCacheMisses == 0 {
				t.Errorf("%s: cache stats %d/%d, want hits and misses", scheme, got.VerifyCacheHits, got.VerifyCacheMisses)
			}
		}
		cfg.noVerifyCache = true
		ref, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s uncached: %v", scheme, err)
		}
		assertSimEquivalent(t, scheme+" cached vs uncached", ref, got)
	}
}

// TestLazyDiscardFires: flooding re-delivers every edge many times, so the
// header-first lazy decode must actually short-circuit duplicates — a
// regression guard against the fast path silently decoding everything.
func TestLazyDiscardFires(t *testing.T) {
	res, err := Simulate(SimulationConfig{Graph: Ring(12), T: 1, Seed: 5, SchemeName: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	if res.LazyDiscards == 0 {
		t.Error("no duplicate was discarded from the header alone")
	}
	if res.DecideCacheHits == 0 {
		t.Error("identical views did not share a connectivity computation")
	}
	// Paranoid mode decodes fully before the duplicate check, so the lazy
	// counter must stay zero there.
	res, err = Simulate(SimulationConfig{
		Graph: Ring(12), T: 1, Seed: 5, SchemeName: "hmac", paranoidVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LazyDiscards != 0 {
		t.Errorf("paranoid run reported %d lazy discards", res.LazyDiscards)
	}
}

// TestEngineV2EarlyExitFires: on quiescence-friendly scenarios the engine
// must actually fast-forward (ActiveRounds < Rounds) — a regression guard
// so the optimization cannot silently turn into a no-op.
func TestEngineV2EarlyExitFires(t *testing.T) {
	res, err := Simulate(SimulationConfig{Graph: Ring(16), T: 1, Seed: 3, SchemeName: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveRounds >= res.Rounds {
		t.Fatalf("ring run never went quiescent: ActiveRounds=%d Rounds=%d", res.ActiveRounds, res.Rounds)
	}
	// A garbage flooder never quiesces: the same topology must pay the
	// full horizon.
	res, err = Simulate(SimulationConfig{
		Graph: Ring(16), T: 1, Seed: 3, SchemeName: "hmac",
		Byzantine: map[NodeID]AttackKind{0: AttackGarbage},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveRounds != res.Rounds {
		t.Fatalf("garbage run exited early: ActiveRounds=%d Rounds=%d", res.ActiveRounds, res.Rounds)
	}
}

// TestExperimentEquivalence: harness-level runs (all three protocols) must
// produce identical accuracy and traffic with one versus two engine workers
// per trial. The full-horizon reference of the same specs runs in
// internal/harness (TestEarlyExitMatchesFullHorizonTrials).
func TestExperimentEquivalence(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoNectar, ProtoMtG, ProtoMtGv2} {
		base := ExperimentSpec{
			Protocol: proto,
			Attack:   AttackSplitBrain,
			Scenario: BridgeScenario(14, 2, 6, 1.8, 2),
			T:        2,
			Trials:   4,
			Seed:     11,
		}
		ref, err := RunExperiment(base)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		gots, err := RunExperiments([]ExperimentSpec{base}, 8) // 4 trials × 2 engine workers
		if err != nil {
			t.Fatalf("%s/jobs-8: %v", proto, err)
		}
		got := gots[0]
		for i := range ref.Trials {
			r, g := ref.Trials[i], got.Trials[i]
			if r.Accuracy != g.Accuracy || r.Agreement != g.Agreement ||
				r.MeanBytesPerNode != g.MeanBytesPerNode || r.MaxBytesPerNode != g.MaxBytesPerNode ||
				r.MeanBroadcastBytes != g.MeanBroadcastBytes {
				t.Errorf("%s/jobs-8 trial %d diverges:\nref: %+v\ngot: %+v", proto, i, r, g)
			}
		}
		// MtG gossips forever, so only it must pay the full horizon.
		if proto == ProtoMtG && ref.ActiveRounds.Mean != float64(13) {
			t.Errorf("mtg: ActiveRounds %.1f, want full horizon 13", ref.ActiveRounds.Mean)
		}
	}
}

// TestSimulateRejectsMisconfiguredBlocked: Blocked entries that would
// silently no-op — for nodes not running the split-brain behaviour, out of
// range, or naming no node but the split-brain node itself — fail loudly,
// in Simulate's own check and naming Blocked.
func TestSimulateRejectsMisconfiguredBlocked(t *testing.T) {
	g := Ring(8)
	splitBrain := map[NodeID]AttackKind{0: AttackSplitBrain}
	cases := []SimulationConfig{
		// Blocked for a crash node.
		{Graph: g, T: 1, Byzantine: map[NodeID]AttackKind{0: AttackCrash},
			Blocked: map[NodeID][]NodeID{0: {1}}},
		// Blocked for a node that is not Byzantine at all.
		{Graph: g, T: 1, Blocked: map[NodeID][]NodeID{3: {1}}},
		// Blocked target out of range.
		{Graph: g, T: 1, Byzantine: splitBrain, Blocked: map[NodeID][]NodeID{0: {99}}},
		// A split-brain node with no Blocked entry, or an empty one.
		{Graph: g, T: 1, Byzantine: splitBrain},
		{Graph: g, T: 1, Byzantine: splitBrain, Blocked: map[NodeID][]NodeID{0: {}}},
		// A split-brain node blocking only itself.
		{Graph: g, T: 1, Byzantine: splitBrain, Blocked: map[NodeID][]NodeID{0: {0}}},
	}
	for i, cfg := range cases {
		cfg.SchemeName = "hmac"
		if _, err := Simulate(cfg); err == nil || !strings.HasPrefix(err.Error(), "nectar: ") ||
			!strings.Contains(err.Error(), "Blocked") {
			t.Errorf("case %d: err = %v, want a nectar: error naming Blocked", i, err)
		}
	}
}
