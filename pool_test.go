package nectar

// Run-lifetime recycling (DESIGN.md §9): the engine's staging, the nodes'
// propagation scratch and the verification cache's storage survive from one
// run to the next on per-package free lists. They may only ever carry
// capacity. The in-package tests of internal/rounds, internal/nectar and
// internal/sig feed each free list synthetic garbage; the tests here check
// the whole stack from the outside — results after arbitrary other runs
// equal results on cold free lists, at any concurrency — and pin the
// allocation saving so it cannot rot.

import (
	"crypto/sha256"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// coldPools empties every sync.Pool in the process: one collection moves
// the pools' contents to their victim caches, the second drops those. The
// buffers it cannot reach are the stagings in the engine's hot slots
// (internal/rounds/pool.go), which no collection clears: "cold" below is
// cold in node scratch, verification-cache stores and overflow stagings, and the hot
// stagings' own garbage-in test is TestPoisonedStagingChangesNothing.
func coldPools() {
	runtime.GC()
	runtime.GC()
}

// dirtyPools leaves the free lists full of buffers from runs that share
// nothing with the equivalence matrix: other sizes, another scheme and key
// set, a garbage flooder's 0xFF-heavy payloads.
func dirtyPools(t *testing.T) {
	t.Helper()
	g, err := Harary(6, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []SimulationConfig{
		{Graph: g, T: 3, Seed: 99, SchemeName: "slim", Byzantine: map[NodeID]AttackKind{4: AttackGarbage}},
		{Graph: g, T: 3, Seed: 98, SchemeName: "hmac", Byzantine: map[NodeID]AttackKind{9: AttackStale}},
	} {
		if _, err := Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Cut short after one round: relay queues are still loaded at Decide.
	ring := Ring(5)
	run, err := harness.BuildNectar(harness.NectarConfig{Graph: ring, T: 1, Scheme: NewHMACScheme(5, 97), Rounds: 1, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rounds.Run(rounds.Config{Graph: ring, Rounds: 1, Seed: 97}, run.Protos); err != nil {
		t.Fatal(err)
	}
	run.Finish(NewDecideCache(), nil, 0)
}

// TestWarmPoolsEquivalenceProperty: for a slice of the engine-equivalence
// matrix — every Byzantine behaviour — the complete SimulationResult on
// recycled buffers equals the one on cold free lists.
func TestWarmPoolsEquivalenceProperty(t *testing.T) {
	for _, tc := range equivalenceCases(t, 7) {
		coldPools()
		cold, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dirtyPools(t)
		for i := 0; i < 2; i++ { // on the dirt, then on its own leavings
			warm, err := Simulate(tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s: warm run %d differs from the cold run:\nwarm: %+v\ncold: %+v",
					tc.name, i, warm, cold)
			}
		}
	}
}

// TestConcurrentRunsMatchSerial hammers the three public drivers from
// eight goroutines at once — free lists shared, buffers migrating between
// runs of different shapes — and requires every result to equal its serial
// value. Run under -race, it is also the data-race check of the pools.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cases := equivalenceCases(t, 1)
	sims := []SimulationConfig{cases[0].cfg, cases[13].cfg, cases[len(cases)-1].cfg}
	specs := []ExperimentSpec{
		{Name: "nectar", Protocol: ProtoNectar, Attack: AttackSplitBrain, Scenario: BridgeScenario(14, 2, 6, 1.8, 2), T: 2, Trials: 2, Seed: 5},
		{Name: "mtg", Protocol: ProtoMtG, Attack: AttackPoison, Scenario: BridgeScenario(14, 2, 6, 1.8, 0), T: 2, Trials: 2, Seed: 5},
	}
	dynamicRun := func() (*DynamicResult, error) {
		g, err := Harary(4, 12)
		if err != nil {
			return nil, err
		}
		sched, err := PoissonChurnSchedule(g, 0.03, 11, 4*11, rand.New(rand.NewSource(2)))
		if err != nil {
			return nil, err
		}
		return SimulateDynamic(DynamicConfig{
			Schedule: sched, T: 1, Seed: 2, SchemeName: "hmac", Epochs: 4,
			Byzantine: map[NodeID]AttackKind{3: AttackEquivocate},
		})
	}
	// trials strips the one field DeepEqual cannot compare (Spec.Scenario
	// is a func).
	trials := func(rs []*ExperimentResult) [][]ExperimentTrial {
		out := make([][]ExperimentTrial, len(rs))
		for i, r := range rs {
			out[i] = r.Trials
		}
		return out
	}

	type results struct {
		sims []*SimulationResult
		exps [][]ExperimentTrial
		dyn  *DynamicResult
	}
	all := func() (results, error) {
		var r results
		for _, cfg := range sims {
			res, err := Simulate(cfg)
			if err != nil {
				return r, err
			}
			r.sims = append(r.sims, res)
		}
		exps, err := RunExperiments(specs, 2)
		if err != nil {
			return r, err
		}
		r.exps = trials(exps)
		r.dyn, err = dynamicRun()
		return r, err
	}

	want, err := all()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				got, err := all()
				if err != nil {
					t.Errorf("goroutine %d: %v", w, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, pass %d: concurrent results differ from the serial ones", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFailedSimulateLeavesNoTrace: error returns — before the build, and
// after it with nodes and verification cache already borrowed — change nothing about a
// later run.
func TestFailedSimulateLeavesNoTrace(t *testing.T) {
	good := equivalenceCases(t, 1)[2].cfg
	coldPools()
	want, err := Simulate(good)
	if err != nil {
		t.Fatal(err)
	}
	lateFailure := good // split-brain without a Blocked set fails in harness.BuildNectar, after BuildNodes
	lateFailure.Blocked = nil
	earlyFailure := good
	earlyFailure.SchemeName = "rot13"
	for _, bad := range []SimulationConfig{lateFailure, earlyFailure} {
		if _, err := Simulate(bad); err == nil {
			t.Fatal("bad config accepted")
		}
	}
	got, err := Simulate(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after failed runs differs from the cold reference")
	}
}

// TestFailedDynamicBuildLeavesNoTrace: a dynamic run whose build fails at a
// late epoch — verification caches and nodes of the earlier epochs borrowed, some of them
// still in flight and never finished — changes nothing about a later run.
func TestFailedDynamicBuildLeavesNoTrace(t *testing.T) {
	g, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is away for the first three epochs and back for the fourth.
	sched := &EdgeSchedule{Base: g, Events: []ScheduleEvent{
		{Round: 1, Kind: NodeLeave, Node: 3},
		{Round: 3*11 + 1, Kind: NodeJoin, Node: 3},
	}}
	good := DynamicConfig{
		Schedule: sched, T: 1, Seed: 2, SchemeName: "hmac", Epochs: 6, Workers: 4,
		Byzantine: map[NodeID]AttackKind{3: AttackSplitBrain},
		Blocked:   map[NodeID][]NodeID{3: {0, 1}},
	}
	coldPools()
	want, err := SimulateDynamic(good)
	if err != nil {
		t.Fatal(err)
	}
	// Split-brain without a Blocked set fails in harness.BuildNectar, after
	// BuildNodes — but only once the node is present to be wrapped.
	// SimulateDynamic refuses it up front, so its stack is driven directly.
	build, release := harness.NectarEpochs(harness.NectarConfig{T: 1, Byzantine: good.Byzantine}, "hmac", nil, nil)
	_, err = dynamic.Run(dynamic.Config{Schedule: sched, T: 1, Seed: 2, Epochs: 6, Workers: 4}, build)
	release()
	if err == nil || !strings.Contains(err.Error(), "epoch 3") {
		t.Fatalf("bad config: got error %v, want a failure at epoch 3", err)
	}
	got, err := SimulateDynamic(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after a failed run differs from the cold reference")
	}
}

// TestWarmRunAllocatesAFraction pins the point of the free lists on two of
// the benchmark's shapes: once one run has filled them, an identical run
// allocates at most a quarter of the bytes. A collection during a warm run
// can still drop pooled scratch — up to 150 KB a node more on the drone
// shape — so the lighter of two warm runs is the one measured. On
// drone-hmac's shape, where nearly every delivery is a duplicate, that is
// 1–2 % of a cold run, and it stays under 4 objects per node (1.2–2.6
// measured at 1–32 workers; ≈ 8–9 while each node got a NeighborProofs map
// and keying marshaled its midstates, ≈ 16 before set-up allocated per
// run). Where the SHA-256 digest cannot append (before Go 1.24) keying
// marshals two midstates a key, and the ceiling is 6. Every relay used to
// allocate the signature Sign returned, 630 objects per node on this
// graph, and now signs into its hop slot, and every proof signed or
// checked built its statement in a writer of its own, about 26 more. On
// tree-slim's — unique paths, every delivery first-seen, the per-node
// views the bulk of a cold run — the ceiling is 2 objects per node
// (0.3–1.2 measured, 3–4 with a proof map a node, ≈ 12 while slim built
// each node's signer on demand): each node used to grow a view of its own,
// some 540 objects on the 500-node tree, and now resets a recycled one.
// Its byte ceiling is what deciding costs: each node used to copy its
// view's edge list (≈ 1.6 KB on the 200-node tree) and allocate a BFS
// scratch (≈ 0.8 KB) — 4.4 KB a node in all — and now shares one entry of
// the decision memo per view (1.8 KB).
func TestWarmRunAllocatesAFraction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation and thins sync.Pool")
	}
	drone, _, err := Drone(60, 2.5, 1.2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := KaryTree(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		cfg            SimulationConfig
		objectsPerNode float64 // ceiling on a warm run's allocations per node
		bytesPerNode   uint64  // and on its bytes per node; 0 = none
	}{
		{"drone/hmac", SimulationConfig{Graph: drone, T: 2, Seed: 3, SchemeName: "hmac"}, 4 + hmacObjectsPerKey, 0},
		{"tree/slim", SimulationConfig{Graph: tree, T: 1, Seed: 3, SchemeName: "slim"}, 2, 3000},
	} {
		run := func() (bytes, objects uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Simulate(tc.cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		coldPools()
		cold, _ := run()
		warm, objects := run()
		if w, o := run(); w < warm {
			warm, objects = w, o
		}
		n := uint64(tc.cfg.Graph.N())
		t.Logf("%s: cold %.1f MB, warm %.1f MB (%.0f%%), %d bytes and %.2f objects per node", tc.name,
			float64(cold)/1e6, float64(warm)/1e6, 100*float64(warm)/float64(cold), warm/n, float64(objects)/float64(n))
		if tc.bytesPerNode > 0 && warm >= tc.bytesPerNode*n {
			t.Errorf("%s: warm run allocated %d bytes, %d or more per node", tc.name, warm, tc.bytesPerNode)
		}
		if warm > cold/4 {
			t.Errorf("%s: warm run allocated %d bytes, more than a quarter of the cold run's %d", tc.name, warm, cold)
		}
		if float64(objects) >= tc.objectsPerNode*float64(n) {
			t.Errorf("%s: warm run allocated %d objects, %.1f or more per node", tc.name, objects, tc.objectsPerNode)
		}
	}
}

// TestStaleMemberAllocatesLittle pins what an always-stale node costs a run
// in objects: it holds each round's batch back in two buffers it reuses in
// turn, and counts deliveries in a slice beside its sorted neighbors, so
// what is left (≈ 42) is the wrapper's set-up and its buffers' growth, not
// one object per held payload (≈ 110 on this shape).
func TestStaleMemberAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation and thins sync.Pool")
	}
	g, err := Harary(4, 40)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(byz map[NodeID]AttackKind) float64 {
		cfg := SimulationConfig{Graph: g, T: 1, Seed: 5, SchemeName: "slim", Workers: 1, Byzantine: byz}
		return testing.AllocsPerRun(20, func() {
			if _, err := Simulate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	clean := allocs(nil)
	extra := allocs(map[NodeID]AttackKind{0: AttackStale}) - clean
	t.Logf("one stale node: %.0f objects above a clean run's %.0f", extra, clean)
	if extra > 60 {
		t.Errorf("one stale node allocates %.0f objects above a clean run, want at most 60", extra)
	}
}

// chatter sends one fixed payload to all its neighbours every round and
// keeps nothing it is handed: a node that allocates nothing, so the engine
// is all a run of them allocates.
type chatter struct{ out []rounds.Send }

func (c *chatter) Emit(int) []rounds.Send          { return c.out }
func (c *chatter) Deliver(int, ids.NodeID, []byte) {}

// hmacObjectsPerKey is what keying HMAC allocates per key: nothing where
// the SHA-256 digest appends its midstates (AppendBinary, Go ≥ 1.24), the
// two marshaled midstates where it cannot.
var hmacObjectsPerKey = func() float64 {
	if _, appends := sha256.New().(interface{ AppendBinary([]byte) ([]byte, error) }); appends {
		return 0
	}
	return 2
}()

// TestSetupAllocatesPerRun pins what a run's set-up allocates as a count
// per run, whatever the nodes and rounds (DESIGN.md §9): keying a scheme
// allocates nothing per key where the SHA-256 digest appends its midstates
// in place (AppendBinary, Go ≥ 1.24) and HMAC's two marshaled midstates
// where it cannot (≈ 6 before, for pads, a domain byte and the seed hash),
// handing out a signer allocates nothing (slim built its signer and tag on
// every call), the engine binds its phases once per run (two closures a
// round before), a clone is one slab for its lists (one allocation a vertex
// before), and so is a graph built from an edge list (a list regrown edge
// by edge before). BuildNodes' pin, one slab each for lists, proofs and
// signatures and one array of nodes, is TestBuildNodesAllocatesPerRun in
// internal/nectar, which can release nodes without a snapshot.
func TestSetupAllocatesPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation")
	}
	const small, large = 16, 1024
	for _, tc := range []struct {
		name   string
		perKey float64
	}{{"slim", 0}, {"hmac", hmacObjectsPerKey}} {
		keying := func(n int) float64 {
			return testing.AllocsPerRun(5, func() { sig.ByName(tc.name, n, 1) })
		}
		if a, b := keying(small), keying(large); b-a != tc.perKey*(large-small) {
			t.Errorf("%s: keying %d nodes allocates %.0f, %d nodes %.0f: want %.0f more per key", tc.name, small, a, large, b, tc.perKey)
		}
		scheme := sig.ByName(tc.name, small, 1)
		if a := testing.AllocsPerRun(10, func() { scheme.SignerFor(small - 1) }); a != 0 {
			t.Errorf("%s: SignerFor allocates %.0f, want 0", tc.name, a)
		}
	}

	g, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]rounds.Protocol, g.N())
	for i := range nodes {
		nodes[i] = &chatter{out: []rounds.Send{{To: g.Neighbors(NodeID(i)), Data: []byte("chatter")}}}
	}
	run := func(r int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: r, Seed: 1, Workers: 1}, nodes); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := run(5), run(40); a != b {
		t.Errorf("rounds.Run allocates %.0f over 5 rounds and %.0f over 40: want the same", a, b)
	}

	clone := func(n int) float64 {
		g, err := Harary(4, n)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { g.Clone() })
	}
	if a, b := clone(small), clone(large); a != b {
		t.Errorf("Graph.Clone allocates %.0f at n = %d and %.0f at n = %d: want the same", a, small, b, large)
	}

	fromEdges := func(n int) float64 {
		pts := make([]Point, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range pts {
			pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		}
		edges := GeometricGraph(pts, 0.3).Edges()
		return testing.AllocsPerRun(10, func() { GraphFromEdges(n, edges) })
	}
	if a, b := fromEdges(small), fromEdges(large); a != b {
		t.Errorf("GraphFromEdges allocates %.0f at n = %d and %.0f at n = %d: want the same", a, small, b, large)
	}
}
