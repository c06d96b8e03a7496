package nectar

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// runCluster drives an all-correct NECTAR execution over g and returns the
// nodes and their outcomes.
func runCluster(t *testing.T, g *graph.Graph, tByz int, scheme sig.Scheme) ([]*Node, []Outcome) {
	t.Helper()
	nodes, err := BuildNodes(g, tByz, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		protos[i] = nd
	}
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: 42}, protos); err != nil {
		t.Fatal(err)
	}
	outs := make([]Outcome, len(nodes))
	for i, nd := range nodes {
		outs[i] = nd.Decide()
	}
	return nodes, outs
}

func TestAllCorrectNodesDiscoverFullGraph(t *testing.T) {
	scheme := sig.NewHMAC(16, 1)
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring8", topology.Ring(8)},
		{"line7", topology.Line(7)},
		{"star9", topology.Star(9)},
		{"complete6", topology.Complete(6)},
		{"petersen-ish", mustER(t, 10, 0.5, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, _ := runCluster(t, tc.g, 1, scheme)
			for i, nd := range nodes {
				if !nd.View().Equal(tc.g) {
					t.Errorf("node %d view %v != topology %v", i, nd.View(), tc.g)
				}
			}
		})
	}
}

func TestDecisionMatrixAllCorrect(t *testing.T) {
	// With no Byzantine nodes all correct nodes see G itself, so the
	// decision is NOT_PARTITIONABLE iff κ(G) > t and G connected.
	scheme := sig.NewHMAC(12, 1)
	tests := []struct {
		name string
		g    *graph.Graph
		t    int
		want Decision
	}{
		{"ring k=2 t=1", topology.Ring(6), 1, NotPartitionable},
		{"ring k=2 t=2", topology.Ring(6), 2, Partitionable},
		{"star k=1 t=1", topology.Star(6), 1, Partitionable},
		{"complete k=n-1 t=3", topology.Complete(6), 3, NotPartitionable},
		{"harary k=4 t=3", mustHarary(t, 4, 10), 3, NotPartitionable},
		{"harary k=4 t=4", mustHarary(t, 4, 10), 4, Partitionable},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, outs := runCluster(t, tc.g, tc.t, scheme)
			for i, o := range outs {
				if o.Decision != tc.want {
					t.Errorf("node %d decided %v, want %v", i, o.Decision, tc.want)
				}
				if o.Confirmed {
					t.Errorf("node %d confirmed a partition on a connected graph", i)
				}
				if o.Reachable != tc.g.N() {
					t.Errorf("node %d reachable=%d, want %d", i, o.Reachable, tc.g.N())
				}
			}
		})
	}
}

func mustHarary(t *testing.T, k, n int) *graph.Graph {
	t.Helper()
	g, err := topology.Harary(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustER(t *testing.T, n int, p float64, rng *rand.Rand) *graph.Graph {
	t.Helper()
	g, err := topology.ErdosRenyi(n, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionedGraphIsConfirmed(t *testing.T) {
	// Two disjoint rings: every node must decide PARTITIONABLE with
	// confirmed = true (an actual partition: r != n).
	g := graph.New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(ids.NodeID(i), ids.NodeID((i+1)%5))
		g.AddEdge(ids.NodeID(5+i), ids.NodeID(5+(i+1)%5))
	}
	_, outs := runCluster(t, g, 1, sig.NewHMAC(10, 1))
	for i, o := range outs {
		if o.Decision != Partitionable || !o.Confirmed {
			t.Errorf("node %d: (%v, confirmed=%v), want (PARTITIONABLE, true)", i, o.Decision, o.Confirmed)
		}
		if o.Reachable != 5 {
			t.Errorf("node %d reachable = %d, want 5", i, o.Reachable)
		}
	}
}

func TestAgreementOnRandomGraphsNoByz(t *testing.T) {
	// Def. 3 Agreement, fault-free case, randomized over topologies
	// (including disconnected ones) and t.
	rng := rand.New(rand.NewSource(31))
	scheme := sig.NewHMAC(12, 1)
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(8)
		g := mustER(t, n, 0.15+0.5*rng.Float64(), rng)
		tByz := rng.Intn(3)
		_, outs := runCluster(t, g, tByz, scheme)
		for i := 1; i < len(outs); i++ {
			if outs[i].Decision != outs[0].Decision {
				t.Fatalf("trial %d: node %d decided %v, node 0 decided %v (g=%v)",
					trial, i, outs[i].Decision, outs[0].Decision, g)
			}
		}
		// Cross-check against ground truth on the real topology.
		want := Partitionable
		if g.IsConnected() && g.ConnectivityAtLeast(tByz+1) {
			want = NotPartitionable
		}
		if outs[0].Decision != want {
			t.Fatalf("trial %d: decided %v, ground truth %v (κ=%d, t=%d)",
				trial, outs[0].Decision, want, g.Connectivity(), tByz)
		}
	}
}

func TestEd25519EndToEnd(t *testing.T) {
	// The correctness-critical path also runs under the real asymmetric
	// scheme (the sweeps use HMAC; DESIGN.md §4).
	g := topology.Ring(6)
	_, outs := runCluster(t, g, 1, sig.NewEd25519(6, 7))
	for i, o := range outs {
		if o.Decision != NotPartitionable {
			t.Errorf("node %d decided %v", i, o.Decision)
		}
	}
}

func TestEmitRound1SendsNeighborhoodToEveryNeighbor(t *testing.T) {
	g := topology.Star(5) // center 0 has 4 neighbors
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(5, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	sends := nodes[0].Emit(1)
	if len(sends) != 4 { // one Send per edge
		t.Errorf("center emitted %d Sends in round 1, want 4", len(sends))
	}
	for _, s := range sends { // each to all 4 neighbors, from one list
		if !slices.Equal(s.Recipients(nil), []ids.NodeID{1, 2, 3, 4}) || &s.To[0] != &sends[0].To[0] {
			t.Errorf("announcement to %v, want every neighbor from the node's own list", s.Recipients(nil))
		}
	}
	leaf := nodes[1].Emit(1)
	if len(leaf) != 1 {
		t.Errorf("leaf emitted %d messages, want 1", len(leaf))
	}
}

// TestEmitIsOneSendPerRelay pins the relay side of the multicast rule: a
// round's relays are one Send per queued edge, to the node's own neighbor
// list, skipping the neighbor each edge came from.
func TestEmitIsOneSendPerRelay(t *testing.T) {
	g := topology.Complete(5)
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(5, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		for _, s := range nd.Emit(1) {
			for _, to := range s.Recipients(nil) {
				nodes[to].Deliver(1, ids.NodeID(i), s.Data)
			}
		}
	}
	nd := nodes[0]
	queued := make([]relayItem, len(nd.queue))
	copy(queued, nd.queue)
	sends := nd.Emit(2)
	if len(queued) == 0 || len(sends) != len(queued) {
		t.Fatalf("%d Sends for %d queued relays", len(sends), len(queued))
	}
	for k, s := range sends {
		from := nd.cfg.Neighbors[queued[k].skip-1]
		var want []ids.NodeID
		for _, nb := range nd.cfg.Neighbors {
			if nb != from {
				want = append(want, nb)
			}
		}
		if &s.To[0] != &nd.cfg.Neighbors[0] || !slices.Equal(s.Recipients(nil), want) {
			t.Errorf("relay %d goes to %v, want %v (all but its sender %v)", k, s.Recipients(nil), want, from)
		}
	}
}

func TestRelayExcludesTheSender(t *testing.T) {
	// Line 0-1-2: node 1 receives {0,1}'s proof announcement from 0 — no,
	// it knows that edge; use edge announcements three hops away.
	// Line 0-1-2-3: node 2 first learns edge {0,1} from node 1 in round 2
	// and must relay it in round 3 to node 3 only (not back to 1).
	g := topology.Line(4)
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		protos[i] = nd
	}
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 2, Seed: 1}, protos); err != nil {
		t.Fatal(err)
	}
	// After round 2, node 2 knows {0,1} and has it queued; round-3 relays
	// must target node 3 only.
	sends := nodes[2].Emit(3)
	for _, s := range sends {
		if slices.Contains(s.Recipients(nil), 1) {
			m, err := DecodeEdgeMsg(s.Data, 64, 4)
			if err != nil {
				t.Fatal(err)
			}
			if m.Proof.Edge == graph.NewEdge(0, 1) {
				t.Error("relay sent back to the neighbor it came from")
			}
		}
	}
}

func TestDuplicatesAreDiscardedCheaply(t *testing.T) {
	g := topology.Complete(5)
	nodes, _ := runCluster(t, g, 1, sig.NewHMAC(5, 1))
	for i, nd := range nodes {
		st := nd.Stats()
		if st.Rejected != 0 {
			t.Errorf("node %d rejected %d honest messages", i, st.Rejected)
		}
		if st.Duplicates == 0 {
			t.Errorf("node %d saw no duplicates on K5 (expected many)", i)
		}
		// On K5, a node accepts exactly the 6 edges not incident to it.
		if st.Accepted != 6 {
			t.Errorf("node %d accepted %d edges, want 6", i, st.Accepted)
		}
	}
}

func TestRoundsOverrideDiameterSuffices(t *testing.T) {
	// §IV-B: any R ≥ diameter discovers the same graph. One extra round
	// lets the last received chains relay nowhere, matching R >= d+1 for
	// edge dissemination from both endpoints. Nodes fall silent once
	// everything is discovered (§IV-E), so R = diameter+1, the n−1 horizon
	// with the engine's early exit, and the n−1 horizon run in full must
	// send the same bytes.
	h, err := topology.Harary(4, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{topology.Ring(10), h} {
		diam, ok := g.Diameter()
		if !ok {
			t.Fatal("disconnected")
		}
		scheme := sig.NewHMAC(g.N(), 1)
		run := func(name string, roundsOverride int, fullHorizon bool) []int64 {
			nodes, err := BuildNodes(g, 1, scheme, roundsOverride)
			if err != nil {
				t.Fatal(err)
			}
			if roundsOverride > 0 && nodes[0].Rounds() != roundsOverride {
				t.Fatalf("n=%d %s: Rounds() = %d, want %d", g.N(), name, nodes[0].Rounds(), roundsOverride)
			}
			protos := make([]rounds.Protocol, len(nodes))
			for i, nd := range nodes {
				protos[i] = nd
			}
			m, err := rounds.Run(rounds.Config{
				Graph: g, Rounds: nodes[0].Rounds(), Seed: 3, FullHorizon: fullHorizon,
			}, protos)
			if err != nil {
				t.Fatal(err)
			}
			for i, nd := range nodes {
				if !nd.View().Equal(g) {
					t.Errorf("n=%d %s: node %d did not converge", g.N(), name, i)
				}
				if o := nd.Decide(); o.Decision != NotPartitionable {
					t.Errorf("n=%d %s: node %d decided %v", g.N(), name, i, o.Decision)
				}
			}
			return m.BytesSent
		}
		short := run("R=diameter+1", diam+1, false)
		early := run("R=n-1 early exit", 0, false)
		full := run("R=n-1 full horizon", 0, true)
		if !slices.Equal(short, early) || !slices.Equal(short, full) {
			t.Errorf("n=%d: bytes differ across horizons: diameter+1=%d early=%d full=%d",
				g.N(), short, early, full)
		}
	}
}

func TestViewReturnsACopy(t *testing.T) {
	g := topology.Ring(4)
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(4, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := nodes[0].View()
	v.AddEdge(0, 2)
	if nodes[0].View().HasEdge(0, 2) {
		t.Error("View leaked internal state")
	}
}

func TestNewNodeValidation(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	v := scheme.Verifier()
	proof := func(nb ids.NodeID) Proof { return MakeProof(scheme.SignerFor(0), scheme.SignerFor(nb)) }
	good := func() Config {
		return Config{
			N: 4, T: 1, Me: 0,
			Neighbors: []ids.NodeID{1},
			Proofs:    []Proof{proof(1)},
			Signer:    scheme.SignerFor(0),
			Verifier:  v,
		}
	}
	twoNeighbors := func(c *Config) {
		c.Neighbors, c.Proofs = []ids.NodeID{1, 2}, []Proof{proof(1), proof(2)}
	}
	for _, mut := range []func(*Config){func(*Config) {}, twoNeighbors} {
		cfg := good()
		mut(&cfg)
		if _, err := NewNode(cfg); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}
	mutations := []struct {
		name string
		mut  func(*Config)
		want string // a substring of the error; "" = any error
	}{
		{"zero N", func(c *Config) { c.N = 0 }, ""},
		{"negative T", func(c *Config) { c.T = -1 }, ""},
		{"me out of range", func(c *Config) { c.Me = 9; c.Signer = sig.NewHMAC(10, 1).SignerFor(9) }, ""},
		{"nil signer", func(c *Config) { c.Signer = nil }, ""},
		{"nil verifier", func(c *Config) { c.Verifier = nil }, ""},
		{"signer identity mismatch", func(c *Config) { c.Signer = scheme.SignerFor(2) }, ""},
		{"negative rounds", func(c *Config) { c.Rounds = -2 }, ""},
		{"self neighbor", func(c *Config) { c.Neighbors = []ids.NodeID{0} }, "invalid neighbor"},
		{"neighbor out of range", func(c *Config) { c.Neighbors = []ids.NodeID{7} }, "invalid neighbor"},
		{"duplicate neighbor", func(c *Config) {
			c.Neighbors, c.Proofs = []ids.NodeID{1, 1}, []Proof{proof(1), proof(1)}
		}, "duplicate neighbor"},
		{"missing proof", func(c *Config) { c.Proofs = nil }, "0 proofs for 1 neighbors"},
		{"proof count mismatch", func(c *Config) { c.Proofs = append(c.Proofs, proof(2)) }, "2 proofs for 1 neighbors"},
		{"proof for wrong edge", func(c *Config) {
			c.Proofs = []Proof{MakeProof(scheme.SignerFor(2), scheme.SignerFor(3))}
		}, "has edge"},
		{"swapped proofs", func(c *Config) {
			twoNeighbors(c)
			c.Proofs[0], c.Proofs[1] = c.Proofs[1], c.Proofs[0]
		}, "proof 0, for neighbor p1, has edge {p0,p2}"},
		{"invalid proof signature", func(c *Config) {
			p := c.Proofs[0]
			p.SigU = make([]byte, len(p.SigU))
			c.Proofs = []Proof{p}
		}, "does not verify"},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mut(&cfg)
			if _, err := NewNode(cfg); err == nil {
				t.Error("invalid config accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

func TestBuildNodesSchemeTooSmall(t *testing.T) {
	if _, err := BuildNodes(topology.Ring(5), 1, sig.NewHMAC(3, 1), 0); err == nil {
		t.Error("undersized scheme accepted")
	}
}

func TestDecisionStringer(t *testing.T) {
	for d, want := range map[Decision]string{
		Undecided:        "UNDECIDED",
		NotPartitionable: "NOT_PARTITIONABLE",
		Partitionable:    "PARTITIONABLE",
		Decision(9):      "Decision(9)",
	} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestParanoidVerifyIsDecisionEquivalent(t *testing.T) {
	// The duplicate-discard optimization (DESIGN.md §2) must not change
	// any observable outcome: identical views and decisions, with the
	// duplicates counted either way.
	g := topology.Complete(7)
	scheme := sig.NewHMAC(7, 1)
	run := func(opts ...BuildOption) []*Node {
		nodes, err := BuildNodes(g, 2, scheme, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		protos := make([]rounds.Protocol, len(nodes))
		for i, nd := range nodes {
			protos[i] = nd
		}
		if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 6, Seed: 9}, protos); err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	fast := run()
	paranoid := run(WithParanoidVerify())
	for i := range fast {
		if !fast[i].View().Equal(paranoid[i].View()) {
			t.Errorf("node %d views differ across verify orders", i)
		}
		fo, po := fast[i].Decide(), paranoid[i].Decide()
		if fo != po {
			t.Errorf("node %d outcomes differ: %+v vs %+v", i, fo, po)
		}
		fs, ps := fast[i].Stats(), paranoid[i].Stats()
		if fs.Accepted != ps.Accepted || fs.Duplicates != ps.Duplicates {
			t.Errorf("node %d stats differ: %+v vs %+v", i, fs, ps)
		}
	}
}

func TestParanoidVerifyRejectsBeforeDuplicateCheck(t *testing.T) {
	// In paranoid mode an invalid message for a KNOWN edge is counted as
	// rejected (verified first); in fast mode it is counted a duplicate.
	g := topology.Ring(4)
	scheme := sig.NewHMAC(4, 1)
	build := func(opts ...BuildOption) *Node {
		nodes, err := BuildNodes(g, 1, scheme, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return nodes[0]
	}
	// An EdgeMsg for node 0's own edge {0,1} with a broken chain.
	msg := ForgeEdgeMsg(scheme.SignerFor(1), scheme.SignerFor(0))
	msg.Chain[0].Sig = make([]byte, 64)
	data := msg.Encode(64)

	fast := build()
	fast.Deliver(1, 1, data)
	if st := fast.Stats(); st.Duplicates != 1 || st.Rejected != 0 {
		t.Errorf("fast mode stats = %+v, want duplicate", st)
	}
	paranoid := build(WithParanoidVerify())
	paranoid.Deliver(1, 1, data)
	if st := paranoid.Stats(); st.Rejected != 1 || st.Duplicates != 0 {
		t.Errorf("paranoid mode stats = %+v, want rejected", st)
	}
}
