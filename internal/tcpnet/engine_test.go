package tcpnet

import (
	"reflect"
	"testing"
	"time"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestTCPMatchesEngine holds a loopback cluster — one Run per node — to an
// in-memory rounds.Run of the same stack at seed 0: Harary(4,12), t = 2,
// Byzantine {2, 7}, hmac, under every Byzantine behaviour whose nodes act
// alone. Outcomes, views, node counters and traffic rows must be equal, and
// no frame may arrive late, so a timing slip fails with its cause named.
//
// The coordinated behaviours (adaptive, phased) are left out: their nodes
// share one adversary.Coordinator that merges victim choices at the phase
// barriers of a single engine, which the processes of a cluster do not
// share.
func TestTCPMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	g, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	byz := []ids.NodeID{2, 7}
	var side []ids.NodeID // the split-brain victims: the upper half, minus the Byzantine nodes
	for v := ids.NodeID(n / 2); int(v) < n; v++ {
		if v != byz[0] && v != byz[1] {
			side = append(side, v)
		}
	}
	scheme := sig.NewHMAC(n, 99)
	for _, attack := range []harness.AttackKind{
		harness.AttackNone, harness.AttackCrash, harness.AttackSplitBrain, harness.AttackFakeEdges,
		harness.AttackGarbage, harness.AttackStale, harness.AttackEquivocate, harness.AttackOmitOwn,
	} {
		t.Run(string(attack), func(t *testing.T) {
			cfg := harness.NectarConfig{Graph: g, T: len(byz), Scheme: scheme,
				Byzantine: map[ids.NodeID]harness.AttackKind{}, Blocked: map[ids.NodeID]ids.Set{}}
			for _, b := range byz {
				cfg.Byzantine[b] = attack
				cfg.Blocked[b] = ids.NewSet(side...)
			}
			want, err := harness.BuildNectar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := rounds.Run(rounds.Config{Graph: g, Rounds: n - 1}, want.Protos)
			if err != nil {
				t.Fatal(err)
			}
			got, err := harness.BuildNectar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats := runCluster(t, g, got.Protos, n-1, 100*time.Millisecond)

			var dropped int64
			for i, st := range stats {
				if st.LateMsgs != 0 {
					t.Errorf("node %d: %d frames arrived after their round window", i, st.LateMsgs)
				}
				row := [4]int64{st.BytesSent, st.BytesBroadcast, st.MsgsSent, st.MsgsDelivered}
				if wantRow := [4]int64{m.BytesSent[i], m.BytesBroadcast[i], m.MsgsSent[i], m.MsgsDelivered[i]}; row != wantRow {
					t.Errorf("node %d: bytes sent/broadcast, msgs sent/delivered over TCP %v, in memory %v", i, row, wantRow)
				}
				dropped += st.DroppedNonEdge
			}
			if dropped != m.DroppedNonEdge {
				t.Errorf("non-edge sends dropped: %d over TCP, %d in memory", dropped, m.DroppedNonEdge)
			}
			gotViews, wantViews := views(got.Nodes), views(want.Nodes)
			for i := range got.Nodes {
				if gs, ws := got.Nodes[i].Stats(), want.Nodes[i].Stats(); gs != ws {
					t.Errorf("node %d: stats over TCP %+v, in memory %+v", i, gs, ws)
				}
			}
			gotOuts, _ := got.Finish(nectar.NewDecideCache(), nil, 0)
			wantOuts, _ := want.Finish(nectar.NewDecideCache(), nil, 0)
			for i := range gotOuts {
				if _, isByz := cfg.Byzantine[ids.NodeID(i)]; isByz {
					continue
				}
				if gotOuts[i] != wantOuts[i] {
					t.Errorf("node %d: outcome over TCP %+v, in memory %+v", i, gotOuts[i], wantOuts[i])
				}
				if !reflect.DeepEqual(gotViews[i], wantViews[i]) {
					t.Errorf("node %d: view over TCP %v, in memory %v", i, gotViews[i], wantViews[i])
				}
			}
		})
	}
}

// views returns each node's discovered edges.
func views(nodes []*nectar.Node) [][]graph.Edge {
	out := make([][]graph.Edge, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.View().Edges()
	}
	return out
}
