package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// baselinesDigest is the SHA-256 of every baselinePins row's Trial results.
// It changes only when what MtG or MtGv2 put on the wire, whom they draw as
// partners, what they meter or what they decide changes.
const baselinesDigest = "7e560f71c89d71864bb88947f291f7f0d93003ee4843ee6b2fbfbb0ad0bae1b7"

// baselinePins lists the pinned baseline runs: MtG and MtGv2 under every
// attack the catalogue defines for each, on Harary(4,12) with a random
// placement and on the Fig. 8 bridge scenario, at seeds 1 and 2, plus a
// lossy run of each protocol. MtG's traffic does not depend
// on whom it gossips to, and at the n-1 horizon every node has heard from
// everyone, so each scenario also runs at a horizon where gossip is still
// spreading: there the decisions, and so the digest, follow every partner
// draw.
func baselinePins() []Spec {
	harary, bridge := RandomPlacement(hararyGen(4, 12), 2), Bridge(35, 2, 6, 1.8, 2)
	scenarios := []struct {
		name   string
		fn     ScenarioFn
		rounds int
	}{
		{"harary", harary, 0},
		{"harary/rounds=7", harary, 7},
		{"bridge", bridge, 0},
		{"bridge/rounds=14", bridge, 14},
	}
	var specs []Spec
	for _, p := range []ProtocolKind{ProtoMtG, ProtoMtGv2} {
		for _, a := range SupportedAttacks(p) {
			for _, sc := range scenarios {
				for _, seed := range []int64{1, 2} {
					specs = append(specs, Spec{
						Name:     fmt.Sprintf("%s/%s/%s/seed=%d", p, a, sc.name, seed),
						Protocol: p, Attack: a, Scenario: sc.fn, T: 2, Trials: 2, Seed: seed, rounds: sc.rounds,
					})
				}
			}
		}
		specs = append(specs,
			Spec{Name: string(p) + "/splitbrain/bridge/loss=0.3", Protocol: p, Attack: AttackSplitBrain,
				Scenario: bridge, T: 2, Trials: 2, Seed: 3, LossRate: 0.3, rounds: 20})
	}
	return specs
}

// TestBaselinesPinned holds the baselines' results to a golden digest: any
// change to their wire bytes, partner draws, metering or decisions moves it.
// The per-row digests it logs locate a mismatch against a known-good run.
func TestBaselinesPinned(t *testing.T) {
	h := sha256.New()
	for _, spec := range baselinePins() {
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		row, err := json.Marshal(res.Trials)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(row)
		t.Logf("%s: %x", spec.Name, sum[:8])
		fmt.Fprintf(h, "%s\n%s\n", spec.Name, row)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != baselinesDigest {
		t.Errorf("baseline results digest %s, want %s", got, baselinesDigest)
	}
}
