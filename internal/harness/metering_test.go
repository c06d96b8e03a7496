package harness

import (
	"fmt"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// contentMeter wraps a node and charges each distinct payload it sends in a
// round once, by content: the multicast accounting of DESIGN.md §5 worked
// out from the bytes, as the engine did before it metered by Send.
type contentMeter struct {
	rounds.Protocol
	bytes int64
}

func (c *contentMeter) Emit(round int) []rounds.Send {
	out := c.Protocol.Emit(round)
	seen := make(map[string]bool, len(out))
	for _, s := range out {
		if !seen[string(s.Data)] {
			seen[string(s.Data)] = true
			c.bytes += int64(len(s.Data) + rounds.DefaultMsgOverhead)
		}
	}
	return out
}

func (c *contentMeter) Quiescent() bool {
	q, ok := c.Protocol.(rounds.Quiescer)
	return ok && q.Quiescent()
}

// TestBroadcastBytesAreDistinctContent holds the engine's multicast rule
// (rounds.Protocol) to content accounting on every correct node the
// harness builds: NECTAR, MtG and MtGv2 under every attack each supports,
// on two scenarios. A correct node sends each payload as
// one Send to all its recipients, so its BytesBroadcast is the cost of its
// distinct (round, content) sends.
func TestBroadcastBytesAreDistinctContent(t *testing.T) {
	var specs []Spec
	for _, p := range Protocols() {
		for _, a := range SupportedAttacks(p) {
			specs = append(specs, Spec{Protocol: p, Attack: a})
		}
	}
	scenarios := []struct {
		name string
		fn   ScenarioFn
	}{
		{"harary", RandomPlacement(hararyGen(4, 12), 2)},
		{"bridge", Bridge(35, 2, 6, 1.8, 2)},
	}
	for _, spec := range specs {
		for _, sc := range scenarios {
			spec.Scenario, spec.T, spec.Trials, spec.Seed = sc.fn, 2, 1, 1
			label := fmt.Sprintf("%s/%s/%s", spec.Protocol, spec.Attack, sc.name)
			valid, err := spec.validate()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			trial, seed, err := trialSetup(&valid, 0)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			protos, finish, err := buildTrial(&valid, trial, seed)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			meters := make([]*contentMeter, len(protos)) // nil for a Byzantine node
			for i, p := range protos {
				if !trial.Byz.Has(ids.NodeID(i)) {
					meters[i] = &contentMeter{Protocol: p}
					protos[i] = meters[i]
				}
			}
			m, err := rounds.Run(rounds.Config{Graph: trial.Graph, Rounds: trial.Graph.N() - 1, Seed: seed}, protos)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			finish()
			for i, cm := range meters {
				if cm != nil && (m.BytesBroadcast[i] != cm.bytes || cm.bytes == 0) {
					t.Errorf("%s: node %d BytesBroadcast %d, its distinct sends cost %d", label, i, m.BytesBroadcast[i], cm.bytes)
				}
			}
		}
	}
}
