package mtg

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// runMtG drives an all-correct MtG epoch over g.
func runMtG(t *testing.T, g *graph.Graph, epoch int) ([]*Node, *rounds.Metrics) {
	t.Helper()
	nodes := make([]*Node, g.N())
	protos := make([]rounds.Protocol, g.N())
	for i := range nodes {
		nd, err := NewNode(Config{
			N: g.N(), Me: ids.NodeID(i),
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(ids.NodeID(i))...),
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		protos[i] = nd
	}
	m, err := rounds.Run(rounds.Config{Graph: g, Rounds: epoch, Seed: 7}, protos)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, m
}

func TestMtGConvergesOnConnectedGraph(t *testing.T) {
	g := topology.Ring(12)
	// Fanout-1 gossip on a ring needs a generous epoch to mix; 4n is
	// plenty for n=12.
	nodes, _ := runMtG(t, g, 48)
	for i, nd := range nodes {
		out := nd.Decide()
		if out.Partitioned {
			t.Errorf("node %d flagged a partition on a connected ring (known=%d)", i, out.Known)
		}
	}
}

func TestMtGDetectsPartition(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 4; i++ {
		g.AddEdge(ids.NodeID(i), ids.NodeID((i+1)%5))
	}
	g.AddEdge(0, 4)
	for i := 5; i < 9; i++ {
		g.AddEdge(ids.NodeID(i), ids.NodeID(i+1))
	}
	g.AddEdge(5, 9)
	nodes, _ := runMtG(t, g, 40)
	for i, nd := range nodes {
		out := nd.Decide()
		if !out.Partitioned {
			t.Errorf("node %d missed the partition (known=%d)", i, out.Known)
		}
		if out.Known < 5 {
			t.Errorf("node %d did not even learn its own side: %d", i, out.Known)
		}
	}
}

func TestMtGCostIsTopologyIndependent(t *testing.T) {
	// The defining property of the MtG baseline in Fig. 4: per-node cost
	// depends only on epoch length and filter size, not on the graph.
	epoch := 20
	sparse, mSparse := runMtG(t, topology.Ring(10), epoch)
	_, mDense := runMtG(t, topology.Complete(10), epoch)
	per := int64(epoch) * int64(sparse[0].filter.ByteSize()+rounds.DefaultMsgOverhead)
	for i := range mSparse.BytesSent {
		if mSparse.BytesSent[i] != per || mDense.BytesSent[i] != per {
			t.Fatalf("node %d: sparse=%d dense=%d, want %d",
				i, mSparse.BytesSent[i], mDense.BytesSent[i], per)
		}
	}
}

func TestMtGIgnoresMalformedFilters(t *testing.T) {
	nd, err := NewNode(Config{N: 4, Me: 0, Neighbors: []ids.NodeID{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nd.Deliver(1, 1, []byte("garbage"))
	if got := nd.Decide(); got.Known != 1 {
		t.Errorf("malformed filter changed state: known=%d", got.Known)
	}
}

// neighborRows are the neighbour lists every constructor and builder must
// refuse for node 0 of 4, with the error each gives.
var neighborRows = []struct {
	name      string
	neighbors []ids.NodeID
	want      string
}{
	{"self neighbor", []ids.NodeID{1, 0}, "mtg: invalid neighbor p0"},
	{"dup neighbor", []ids.NodeID{1, 1}, "mtg: duplicate neighbor p1"},
	{"dup neighbor unsorted", []ids.NodeID{3, 1, 2, 1}, "mtg: duplicate neighbor p1"},
	{"neighbor out of range", []ids.NodeID{8}, "mtg: invalid neighbor p8"},
}

func TestMtGValidation(t *testing.T) {
	base := Config{N: 4, Me: 0, Neighbors: []ids.NodeID{1}}
	cases := []struct {
		name string
		mut  func(Config) Config
		want string
	}{
		{"zero N", func(c Config) Config { c.N = 0; return c }, "mtg: N must be positive, got 0"},
		{"me out of range", func(c Config) Config { c.Me = 9; return c }, "mtg: Me=p9 out of range [0,4)"},
	}
	for _, row := range neighborRows {
		nbrs := row.neighbors
		cases = append(cases, struct {
			name string
			mut  func(Config) Config
			want string
		}{row.name, func(c Config) Config { c.Neighbors = nbrs; return c }, row.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNode(tc.mut(base)); err == nil || err.Error() != tc.want {
				t.Errorf("got error %v, want %q", err, tc.want)
			}
		})
	}
	if _, err := NewNode(Config{N: 4, Me: 0, Neighbors: []ids.NodeID{3, 1, 2}}); err != nil {
		t.Errorf("unsorted distinct neighbours rejected: %v", err)
	}
}

// badNeighborhoods is a 4-vertex network whose vertex 0 has the given list.
type badNeighborhoods []ids.NodeID

func (b badNeighborhoods) N() int { return 4 }

func (b badNeighborhoods) Neighbors(v ids.NodeID) []ids.NodeID {
	if v == 0 {
		return b
	}
	return nil
}

// isolated is a network of that many vertices and no edges.
type isolated int

func (n isolated) N() int                          { return int(n) }
func (isolated) Neighbors(ids.NodeID) []ids.NodeID { return nil }

// TestBuildersRejectBadNeighbors: both slab builders refuse what NewNode
// and NewNodeV2 refuse, with the same error.
func TestBuildersRejectBadNeighbors(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	for _, row := range neighborRows {
		g := badNeighborhoods(row.neighbors)
		if _, err := BuildNodes(g, 1); err == nil || err.Error() != row.want {
			t.Errorf("BuildNodes, %s: got error %v, want %q", row.name, err, row.want)
		}
		if _, err := BuildNodesV2(g, scheme, 1); err == nil || err.Error() != row.want {
			t.Errorf("BuildNodesV2, %s: got error %v, want %q", row.name, err, row.want)
		}
	}
}

// TestBuildersMatchNewNode: a run of slab-built nodes is a run of nodes
// built one by one — same metrics, same decisions — so the windows a build
// hands out neither overlap nor change what a node does.
func TestBuildersMatchNewNode(t *testing.T) {
	g, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	run := func(protos []rounds.Protocol) *rounds.Metrics {
		m, err := rounds.Run(rounds.Config{Graph: g, Rounds: 6, Seed: 3}, protos)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	n, scheme := g.N(), sig.NewHMAC(12, 2)
	built, err := BuildNodes(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	builtV2, err := BuildNodesV2(g, scheme, 5)
	if err != nil {
		t.Fatal(err)
	}
	one, oneV2 := make([]*Node, n), make([]*NodeV2, n)
	protos := make([][]rounds.Protocol, 4)
	for i := range n {
		me := ids.NodeID(i)
		nbrs := append([]ids.NodeID(nil), g.Neighbors(me)...)
		if one[i], err = NewNode(Config{N: n, Me: me, Neighbors: nbrs, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if oneV2[i], err = NewNodeV2(ConfigV2{N: n, Me: me, Neighbors: nbrs, Signer: scheme.SignerFor(me), Verifier: scheme.Verifier(), Seed: 5}); err != nil {
			t.Fatal(err)
		}
		protos[0] = append(protos[0], &built[i])
		protos[1] = append(protos[1], one[i])
		protos[2] = append(protos[2], &builtV2[i])
		protos[3] = append(protos[3], oneV2[i])
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		if a, b := run(protos[pair[0]]), run(protos[pair[1]]); !reflect.DeepEqual(a, b) {
			t.Errorf("runs %v: built metrics %+v, one by one %+v", pair, a, b)
		}
	}
	for i := range n {
		if a, b := built[i].Decide(), one[i].Decide(); a != b {
			t.Errorf("MtG node %d: built decides %+v, one by one %+v", i, a, b)
		}
		if a, b := builtV2[i].Decide(), oneV2[i].Decide(); a != b {
			t.Errorf("MtGv2 node %d: built decides %+v, one by one %+v", i, a, b)
		}
		if !slices.Equal(builtV2[i].discovered(), oneV2[i].discovered()) {
			t.Errorf("MtGv2 node %d: built holds %v, one by one %v", i, builtV2[i].discovered(), oneV2[i].discovered())
		}
	}
}

// ---- MtGv2 ----

func runMtGv2(t *testing.T, g *graph.Graph, epoch int, scheme sig.Scheme) ([]*NodeV2, *rounds.Metrics) {
	t.Helper()
	nodes := make([]*NodeV2, g.N())
	protos := make([]rounds.Protocol, g.N())
	for i := range nodes {
		nd, err := NewNodeV2(ConfigV2{
			N: g.N(), Me: ids.NodeID(i),
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(ids.NodeID(i))...),
			Signer:    scheme.SignerFor(ids.NodeID(i)),
			Verifier:  scheme.Verifier(),
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		protos[i] = nd
	}
	m, err := rounds.Run(rounds.Config{Graph: g, Rounds: epoch, Seed: 7}, protos)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, m
}

func TestMtGv2ConvergesAndDetects(t *testing.T) {
	scheme := sig.NewHMAC(12, 1)
	connected := topology.Ring(12)
	nodes, _ := runMtGv2(t, connected, 48, scheme)
	for i, nd := range nodes {
		if out := nd.Decide(); out.Partitioned {
			t.Errorf("node %d flagged connected ring (known=%d)", i, out.Known)
		}
	}

	split := graph.New(12)
	for i := 0; i < 6; i++ {
		split.AddEdge(ids.NodeID(i), ids.NodeID((i+1)%6))
		split.AddEdge(ids.NodeID(6+i), ids.NodeID(6+(i+1)%6))
	}
	nodes, _ = runMtGv2(t, split, 48, scheme)
	for i, nd := range nodes {
		out := nd.Decide()
		if !out.Partitioned || out.Known != 6 {
			t.Errorf("node %d: partitioned=%v known=%d, want true/6", i, out.Partitioned, out.Known)
		}
	}
}

func TestMtGv2CredentialsAreUnforgeable(t *testing.T) {
	scheme := sig.NewEd25519(4, 1)
	nd, err := NewNodeV2(ConfigV2{
		N: 4, Me: 0, Neighbors: []ids.NodeID{1},
		Signer: scheme.SignerFor(0), Verifier: scheme.Verifier(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A Byzantine neighbor fabricates credentials for nodes 2 and 3: junk
	// bytes for 2, and its own signature transplanted for 3.
	forged := []SignedID{
		{ID: 2, Sig: make([]byte, sig.Ed25519SigSize)},
		{ID: 3, Sig: SignID(scheme.SignerFor(1))},
		{ID: 99, Sig: SignID(scheme.SignerFor(1))}, // out of range
	}
	nd.Deliver(1, 1, EncodeBatch(forged, sig.Ed25519SigSize))
	if got := nd.Decide(); got.Known != 1 {
		t.Errorf("forged credentials accepted: known=%d", got.Known)
	}
	// A genuine credential in the same batch shape is accepted.
	nd.Deliver(2, 1, EncodeBatch([]SignedID{{ID: 1, Sig: SignID(scheme.SignerFor(1))}}, sig.Ed25519SigSize))
	if got := nd.Decide(); got.Known != 2 {
		t.Errorf("genuine credential rejected: known=%d", got.Known)
	}
}

func TestMtGv2SendsEachCredentialOncePerNeighbor(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	// Node 0 with one neighbor: every pick is that neighbor. Two Emits must not
	// resend the own credential.
	nd, err := NewNodeV2(ConfigV2{
		N: 4, Me: 0, Neighbors: []ids.NodeID{1},
		Signer: scheme.SignerFor(0), Verifier: scheme.Verifier(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := nd.Emit(1)
	if len(first) != 1 {
		t.Fatalf("first emit sent %d messages", len(first))
	}
	if len(nd.Emit(2)) != 0 {
		t.Error("credential resent to the same neighbor within the epoch")
	}
	// Learning a new credential triggers exactly one more batch.
	nd.Deliver(2, 1, EncodeBatch([]SignedID{{ID: 1, Sig: SignID(scheme.SignerFor(1))}}, scheme.Verifier().SigSize()))
	third := nd.Emit(3)
	if len(third) != 1 {
		t.Fatalf("emit after learning sent %d messages", len(third))
	}
	batch, err := DecodeBatch(third[0].Data, scheme.Verifier().SigSize())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].ID != 1 {
		t.Errorf("unexpected batch %v", batch)
	}
}

func TestBatchRoundTripAndSizes(t *testing.T) {
	scheme := sig.NewHMAC(6, 1)
	ss := scheme.Verifier().SigSize()
	batch := []SignedID{
		{ID: 0, Sig: SignID(scheme.SignerFor(0))},
		{ID: 5, Sig: SignID(scheme.SignerFor(5))},
	}
	data := EncodeBatch(batch, ss)
	if len(data) != BatchWireSize(2, ss) {
		t.Errorf("encoded %d bytes, want %d", len(data), BatchWireSize(2, ss))
	}
	got, err := DecodeBatch(data, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 5 {
		t.Errorf("round trip mismatch: %v", got)
	}
	if _, err := DecodeBatch(data[:10], ss); err == nil {
		t.Error("truncated batch accepted")
	}
	if _, err := DecodeBatch(append(data, 0), ss); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMtGv2Validation(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	good := ConfigV2{
		N: 4, Me: 0, Neighbors: []ids.NodeID{1},
		Signer: scheme.SignerFor(0), Verifier: scheme.Verifier(),
	}
	if _, err := NewNodeV2(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Signer = nil
	if _, err := NewNodeV2(bad); err == nil {
		t.Error("nil signer accepted")
	}
	bad = good
	bad.Signer = scheme.SignerFor(2)
	if _, err := NewNodeV2(bad); err == nil {
		t.Error("signer identity mismatch accepted")
	}
	// A batch counts its credentials in a u16.
	bad = good
	bad.N = math.MaxUint16 + 1
	if _, err := NewNodeV2(bad); err == nil {
		t.Error("N past a batch's u16 count accepted")
	}
	bad.N = math.MaxUint16
	if _, err := NewNodeV2(bad); err != nil {
		t.Errorf("N = %d rejected: %v", bad.N, err)
	}
	// The builder refuses it before sizing a slab of n² flags.
	if _, err := BuildNodesV2(isolated(math.MaxUint16+1), scheme, 1); err == nil {
		t.Error("BuildNodesV2: n past a batch's u16 count accepted")
	}
	for _, row := range neighborRows {
		bad = good
		bad.Neighbors = row.neighbors
		if _, err := NewNodeV2(bad); err == nil || err.Error() != row.want {
			t.Errorf("%s: got error %v, want %q", row.name, err, row.want)
		}
	}
}
