package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestEveryProtocolAttackPairRuns drives every (protocol, attack) pair of
// the catalogue through a full end-to-end trial. Unsupported combos are
// rejected up front by Run; this test closes the other half: every combo
// the table admits must actually build and complete, so a behaviour added
// to the table without wiring (or vice versa) fails here immediately.
func TestEveryProtocolAttackPairRuns(t *testing.T) {
	gen := func(rng *rand.Rand) (*graph.Graph, error) { return topology.Harary(4, 12) }
	for _, proto := range Protocols() {
		attacks := SupportedAttacks(proto)
		if len(attacks) == 0 {
			t.Fatalf("protocol %q has no attacks in the table", proto)
		}
		for _, attack := range attacks {
			name := fmt.Sprintf("%s/%s", proto, attack)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Spec{
					Name:     name,
					Protocol: proto,
					Attack:   attack,
					// RandomPlacement supplies the Blocked side every
					// split-brain variant needs.
					Scenario: RandomPlacement(gen, 2),
					T:        2,
					Trials:   2,
					Seed:     13,
				})
				if err != nil {
					t.Fatalf("supported combo failed: %v", err)
				}
				if len(res.Trials) != 2 {
					t.Fatalf("completed %d trials, want 2", len(res.Trials))
				}
				for i, tr := range res.Trials {
					if tr.Rounds == 0 || tr.ActiveRounds == 0 {
						t.Errorf("trial %d executed no rounds: %+v", i, tr)
					}
				}
			})
		}
	}
}

// TestUnsupportedPairsRejected spot-checks the complement: combos absent
// from the table must be refused before any trial runs.
func TestUnsupportedPairsRejected(t *testing.T) {
	gen := func(rng *rand.Rand) (*graph.Graph, error) { return topology.Harary(4, 12) }
	cases := []struct {
		proto  ProtocolKind
		attack AttackKind
	}{
		{ProtoMtG, AttackOmitOwn},
		{ProtoMtG, AttackAdaptive},
		{ProtoMtGv2, AttackPoison},
		{ProtoMtGv2, AttackPhased},
		{ProtoNectar, AttackPoison},
	}
	for _, c := range cases {
		_, err := Run(Spec{
			Protocol: c.proto, Attack: c.attack,
			Scenario: RandomPlacement(gen, 2), T: 2, Trials: 1, Seed: 1,
		})
		if err == nil {
			t.Errorf("%s/%s accepted", c.proto, c.attack)
		}
	}
}

// TestSplitBrainNeedsBlocked: the split-brain row refuses a Byzantine node
// with no Blocked set under every protocol, rather than blocking nobody.
func TestSplitBrainNeedsBlocked(t *testing.T) {
	g, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Graph: g, Byz: ids.NewSet(0, 5), Blocked: map[ids.NodeID]ids.Set{}}
	for _, proto := range Protocols() {
		_, err := Run(Spec{
			Protocol: proto, Attack: AttackSplitBrain,
			Scenario: func(*rand.Rand) (*Scenario, error) { return sc, nil },
			T:        2, Trials: 1, Seed: 1,
		})
		if err == nil || !strings.Contains(err.Error(), "no Blocked set") {
			t.Errorf("%s: err = %v, want a missing Blocked set refused", proto, err)
		}
	}
}

// TestStaleRowKeepsItsOwnCoordinator: the stale row's member stays out of
// the run's coalition. A run with a stale node beside an adaptive coalition
// must equal the same run with the stale node put behind a private
// always-stale member by hand — which internal/adversary holds to a
// delay-by-one reference (TestAlwaysStaleIsDelayByOne).
func TestStaleRowKeepsItsOwnCoordinator(t *testing.T) {
	g, err := topology.Harary(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(byz map[ids.NodeID]AttackKind, byHand bool) (*rounds.Metrics, []nectar.Outcome) {
		r, err := BuildNectar(NectarConfig{Graph: g, T: 3, Scheme: sig.NewHMAC(16, 1), Seed: 4, Byzantine: byz})
		if err != nil {
			t.Fatal(err)
		}
		if byHand {
			always := func(int) adversary.Action { return adversary.ActStale }
			r.Protos[0] = adversary.NewCoordinator().Join(r.Nodes[0], 0, g.Neighbors(0), always)
		}
		m, err := rounds.Run(rounds.Config{Graph: g, Rounds: 15, Seed: 4, Workers: 1}, r.Protos)
		if err != nil {
			t.Fatal(err)
		}
		outs, _ := r.Finish(nectar.NewDecideCache(), nil, 0)
		return m, outs
	}
	// Node 2 neighbors the stale node 0, and both neighbor node 1.
	gotM, gotO := run(map[ids.NodeID]AttackKind{0: AttackStale, 2: AttackAdaptive, 9: AttackAdaptive}, false)
	wantM, wantO := run(map[ids.NodeID]AttackKind{0: AttackNone, 2: AttackAdaptive, 9: AttackAdaptive}, true)
	if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotO, wantO) {
		t.Errorf("stale row differs from a private always-stale member:\nrow     %+v\nby hand %+v", gotM, wantM)
	}
}

// TestEmptyAttackIsNone: validation reads the empty attack as AttackNone,
// and so does the build — a scenario with Byzantine nodes runs as it does
// under AttackNone instead of failing its first trial.
func TestEmptyAttackIsNone(t *testing.T) {
	for _, proto := range Protocols() {
		var trials [2][]Trial
		for i, a := range []AttackKind{"", AttackNone} {
			res, err := Run(Spec{Protocol: proto, Attack: a, Scenario: RandomPlacement(hararyGen(4, 12), 2), T: 2, Trials: 2, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%q: %v", proto, a, err)
			}
			trials[i] = res.Trials
		}
		if !reflect.DeepEqual(trials[0], trials[1]) {
			t.Errorf("%s: the empty attack and AttackNone score differently", proto)
		}
	}
}
