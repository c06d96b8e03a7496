package harness

import (
	"runtime/debug"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestBaselineBuildAllocatesPerRun pins the build of one MtG and one MtGv2
// trial — the nodes in one array, their buffers windows of per-run slabs,
// the protocol table — to a number of objects that does not grow with n:
// a node that allocates its own buffers, partner source or validation set
// again adds objects per node.
func TestBaselineBuildAllocatesPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skips allocation fusions")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(p ProtocolKind, n int) float64 {
		g, err := topology.Harary(4, n)
		if err != nil {
			t.Fatal(err)
		}
		// slim keys and signs from prebuilt tables, touching no pool.
		spec := &Spec{Protocol: p, T: 1, Trials: 1, Seed: 1, SchemeName: "slim"}
		sc := &Scenario{Graph: g, Byz: ids.NewSet(), Blocked: map[ids.NodeID]ids.Set{}}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := buildTrial(spec, sc, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large, ceiling = 35, 140, 16
	for _, p := range []ProtocolKind{ProtoMtG, ProtoMtGv2} {
		a, b := build(p, small), build(p, large)
		t.Logf("%s: %.0f objects at n = %d, %.0f at n = %d", p, a, small, b, large)
		if a != b || a > ceiling {
			t.Errorf("%s: a trial build allocates %.0f objects at n = %d and %.0f at n = %d: want the same, at most %d", p, a, small, b, large, ceiling)
		}
	}
}
