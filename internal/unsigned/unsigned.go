// Package unsigned prototypes the paper's §VII conjecture: partition
// detection *without signatures* in synchronous networks, "albeit at a
// significant cost".
//
// The signature chains of NECTAR are replaced by Dolev-style
// path-annotated flooding (Dolev, FOCS'81; made practical by Bonomi et
// al., the paper's reference [12]): every copy of an edge claim carries
// the exact list of nodes it traversed, and a node believes a claim
// asserted by a non-neighbor only once it holds t+1 pairwise
// vertex-disjoint paths for it — so at least one copy traveled through
// correct nodes only. An edge {u,v} enters the local view only when BOTH
// endpoint assertions are believed, mirroring the two signatures of a
// proof of neighborhood: a single Byzantine node cannot fabricate an edge
// to a correct node, while colluding Byzantine pairs can (as the model
// allows).
//
// Guarantees (and their limits — this is a prototype of a conjecture, not
// a proved algorithm):
//
//   - Termination: fixed horizon, default n-1 rounds (paths cannot exceed
//     n-1 hops).
//   - Liveness/Sensitivity: if κ(G) ≥ 2t+1, between any two correct nodes
//     at least t+1 vertex-disjoint all-correct paths survive the Byzantine
//     nodes, so every honest claim is believed by every correct node and
//     the decision matches signed NECTAR.
//   - Safety: fabricated claims about correct nodes are never believed
//     (each lying copy's path contains a Byzantine node, and only t exist,
//     so t+1 disjoint lying paths cannot be assembled).
//   - Agreement: holds for honest content; for claims asserted *by
//     Byzantine nodes* an adversary able to deliver t+1 disjoint paths to
//     one correct node but not another can cause view divergence — the
//     gap that signatures close and the reason the paper only posits this
//     variant. Divergence can only concern Byzantine-incident edges.
//
// The cost is dramatic — every claim travels once per path rather than
// once per edge — which BenchmarkUnsignedCost quantifies against signed
// NECTAR.
package unsigned

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Config parameterizes an unsigned node.
type Config struct {
	// N is the total number of processes.
	N int
	// T is the Byzantine bound; acceptance needs t+1 disjoint paths.
	T int
	// Me is the local identity.
	Me ids.NodeID
	// Neighbors is Γ(Me).
	Neighbors []ids.NodeID
	// Rounds overrides the horizon (0 = n-1).
	Rounds int
	// MaxPathsPerClaim bounds the stored path set per claim (0 = 128) —
	// the practical cap keeping Dolev's worst-case O(n!) path explosion
	// at bay, following the spirit of Bonomi et al.'s optimizations.
	MaxPathsPerClaim int
	// MaxRelaysPerClaim bounds how many distinct copies of one claim a
	// node relays (0 = 64).
	MaxRelaysPerClaim int
}

// claimKey identifies "asserter says edge exists".
type claimKey struct {
	asserter ids.NodeID
	edge     graph.Edge
}

// claimState tracks evidence for one claim.
type claimState struct {
	paths    [][]ids.NodeID // minimal received paths (internal vertices only matter)
	believed bool
	relays   int
}

// Node is a correct process of the unsigned variant. It implements
// rounds.Protocol and reuses NECTAR's decision phase on the assembled
// view.
type Node struct {
	cfg      Config
	nRounds  int
	view     *graph.Graph
	claims   map[claimKey]*claimState
	believed map[graph.Edge]ids.Set // believed asserters per edge
	queue    []outMsg               // relays for the next round
	started  bool                   // round-1 assertions have been emitted
	stats    Stats
}

// Stats counts message handling outcomes.
type Stats struct {
	Believed  int // claims that reached belief
	Rejected  int // malformed or stale messages
	Discarded int // valid but redundant/capped copies
}

// outMsg is a queued relay.
type outMsg struct {
	key  claimKey
	path []ids.NodeID // path including us as last element
	skip ids.Set      // nodes already on the path (no point sending back)
}

var _ rounds.Protocol = (*Node)(nil)

// NewNode validates cfg and initializes the local view with Γ(Me).
func NewNode(cfg Config) (*Node, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("unsigned: N must be positive, got %d", cfg.N)
	}
	if cfg.T < 0 {
		return nil, fmt.Errorf("unsigned: negative T")
	}
	if int(cfg.Me) >= cfg.N {
		return nil, fmt.Errorf("unsigned: Me out of range")
	}
	if cfg.MaxPathsPerClaim == 0 {
		cfg.MaxPathsPerClaim = 128
	}
	if cfg.MaxRelaysPerClaim == 0 {
		cfg.MaxRelaysPerClaim = 64
	}
	nd := &Node{
		cfg:      cfg,
		nRounds:  cfg.Rounds,
		view:     graph.New(cfg.N),
		claims:   make(map[claimKey]*claimState),
		believed: make(map[graph.Edge]ids.Set),
	}
	if nd.nRounds == 0 {
		nd.nRounds = cfg.N - 1
	}
	seen := make(ids.Set, len(cfg.Neighbors))
	for _, nb := range cfg.Neighbors {
		if nb == cfg.Me || int(nb) >= cfg.N || seen.Has(nb) {
			return nil, fmt.Errorf("unsigned: invalid neighbor %v", nb)
		}
		seen.Add(nb)
		nd.view.AddEdge(cfg.Me, nb)
	}
	return nd, nil
}

// Rounds returns the protocol horizon.
func (nd *Node) Rounds() int { return nd.nRounds }

// Emit implements rounds.Protocol: round 1 asserts the local
// neighborhood; later rounds flush queued relays.
func (nd *Node) Emit(round int) []rounds.Send {
	nd.started = true
	var out []rounds.Send
	if round == 1 {
		for _, nb := range nd.cfg.Neighbors {
			key := claimKey{asserter: nd.cfg.Me, edge: graph.NewEdge(nd.cfg.Me, nb)}
			data := encodeMsg(key, []ids.NodeID{nd.cfg.Me})
			for _, dest := range nd.cfg.Neighbors {
				out = append(out, rounds.Send{To: dest, Data: data})
			}
		}
		return out
	}
	for _, m := range nd.queue {
		data := encodeMsg(m.key, m.path)
		for _, dest := range nd.cfg.Neighbors {
			if !m.skip.Has(dest) {
				out = append(out, rounds.Send{To: dest, Data: data})
			}
		}
	}
	nd.queue = nd.queue[:0]
	return out
}

// Quiescent implements rounds.Quiescer: nothing queued for relay means
// nothing to say until another acceptable path-annotated copy arrives.
func (nd *Node) Quiescent() bool { return nd.started && len(nd.queue) == 0 }

// Deliver implements rounds.Protocol: validate the path-annotated copy,
// update the claim's evidence, and re-evaluate belief.
func (nd *Node) Deliver(round int, from ids.NodeID, data []byte) {
	key, path, err := decodeMsg(data, nd.cfg.N)
	if err != nil {
		nd.stats.Rejected++
		return
	}
	// Path sanity: grows one hop per round (same staleness rule as
	// NECTAR's chains), starts at the asserter, ends at the delivering
	// neighbor, has no duplicates, and does not contain us.
	if len(path) != round || path[0] != key.asserter || path[len(path)-1] != from {
		nd.stats.Rejected++
		return
	}
	onPath := make(ids.Set, len(path)+1)
	for _, v := range path {
		if v == nd.cfg.Me || onPath.Has(v) {
			nd.stats.Rejected++
			return
		}
		onPath.Add(v)
	}
	// The asserter must be an endpoint of the claimed edge.
	if key.asserter != key.edge.U && key.asserter != key.edge.V {
		nd.stats.Rejected++
		return
	}

	st := nd.claims[key]
	if st == nil {
		st = &claimState{}
		nd.claims[key] = st
	}

	// Relay the extended copy (Dolev: to neighbors not already on the
	// path), within the per-claim budget. Relaying continues even after
	// local belief: downstream nodes assemble their own t+1 disjoint
	// paths independently, and cutting relays early would starve them.
	if st.relays < nd.cfg.MaxRelaysPerClaim {
		st.relays++
		extended := append(append([]ids.NodeID(nil), path...), nd.cfg.Me)
		skip := onPath.Clone()
		skip.Add(nd.cfg.Me)
		nd.queue = append(nd.queue, outMsg{key: key, path: extended, skip: skip})
	}

	if st.believed || len(st.paths) >= nd.cfg.MaxPathsPerClaim {
		nd.stats.Discarded++
		return
	}
	// Store the path's internal vertices (everything between the asserter
	// and us) for the disjointness test.
	internal := append([]ids.NodeID(nil), path[1:]...)
	st.paths = append(st.paths, internal)

	if nd.believe(key, st) {
		st.believed = true
		nd.stats.Believed++
		set := nd.believed[key.edge]
		if set == nil {
			set = ids.NewSet()
			nd.believed[key.edge] = set
		}
		set.Add(key.asserter)
		// An edge is recorded once both endpoints assert it (or we are an
		// endpoint ourselves — but then it was known from round 0).
		if set.Has(key.edge.U) && set.Has(key.edge.V) {
			nd.view.AddEdge(key.edge.U, key.edge.V)
		}
	}
}

// believe applies the acceptance rule: a direct assertion from the
// asserting neighbor itself, or t+1 pairwise vertex-disjoint paths.
func (nd *Node) believe(key claimKey, st *claimState) bool {
	for _, p := range st.paths {
		if len(p) == 0 {
			// Path was exactly [asserter]: the asserter delivered its own
			// claim over the authenticated channel.
			return true
		}
	}
	return disjointSubset(st.paths, nd.cfg.T+1)
}

// disjointSubset reports whether `need` pairwise-disjoint vertex sets can
// be chosen among paths. Exact backtracking; instances are small (need =
// t+1, path count capped).
func disjointSubset(paths [][]ids.NodeID, need int) bool {
	if need <= 0 {
		return true
	}
	// Order by length: short paths constrain least.
	ordered := append([][]ids.NodeID(nil), paths...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && len(ordered[j-1]) > len(ordered[j]); j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	used := make(ids.Set)
	var rec func(start, picked int) bool
	rec = func(start, picked int) bool {
		if picked == need {
			return true
		}
		for i := start; i <= len(ordered)-(need-picked); i++ {
			p := ordered[i]
			ok := true
			for _, v := range p {
				if used.Has(v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, v := range p {
				used.Add(v)
			}
			if rec(i+1, picked+1) {
				return true
			}
			for _, v := range p {
				used.Remove(v)
			}
		}
		return false
	}
	return rec(0, 0)
}

// Decide runs NECTAR's decision phase (Alg. 1 ll. 16-24) on the assembled
// view.
func (nd *Node) Decide() nectar.Outcome {
	r := nd.view.CountReachable(nd.cfg.Me)
	kOverT := nd.view.ConnectivityAtLeast(nd.cfg.T + 1)
	out := nectar.Outcome{Reachable: r, ConnectivityOverT: kOverT}
	if kOverT && r == nd.cfg.N {
		out.Decision = nectar.NotPartitionable
		return out
	}
	out.Decision = nectar.Partitionable
	out.Confirmed = r != nd.cfg.N
	return out
}

// View returns a copy of the assembled graph.
func (nd *Node) View() *graph.Graph { return nd.view.Clone() }

// Stats returns message-handling counters.
func (nd *Node) Stats() Stats { return nd.stats }

// ---- wire format ----

// encodeMsg serializes claim + path: edge (8B), asserter (4B), path
// (u16 count + 4B ids).
func encodeMsg(key claimKey, path []ids.NodeID) []byte {
	w := wire.NewWriter(14 + 4*len(path))
	w.NodeID(key.edge.U)
	w.NodeID(key.edge.V)
	w.NodeID(key.asserter)
	w.U16(uint16(len(path)))
	for _, v := range path {
		w.NodeID(v)
	}
	return w.Bytes()
}

func decodeMsg(data []byte, n int) (claimKey, []ids.NodeID, error) {
	r := wire.NewReader(data)
	u, v, asserter := r.NodeID(), r.NodeID(), r.NodeID()
	count := int(r.U16())
	if r.Err() != nil {
		return claimKey{}, nil, r.Err()
	}
	if count*4 > r.Remaining() {
		return claimKey{}, nil, wire.ErrTruncated
	}
	path := make([]ids.NodeID, 0, count)
	for i := 0; i < count; i++ {
		path = append(path, r.NodeID())
	}
	if err := r.Close(); err != nil {
		return claimKey{}, nil, err
	}
	if u >= v || int(v) >= n || int(asserter) >= n {
		return claimKey{}, nil, fmt.Errorf("unsigned: malformed claim")
	}
	for _, p := range path {
		if int(p) >= n {
			return claimKey{}, nil, fmt.Errorf("unsigned: path id out of range")
		}
	}
	return claimKey{asserter: asserter, edge: graph.Edge{U: u, V: v}}, path, nil
}

// BuildNodes constructs one unsigned node per vertex (simulation setup).
func BuildNodes(g *graph.Graph, t int, roundsOverride int) ([]*Node, error) {
	nodes := make([]*Node, g.N())
	for i := range nodes {
		me := ids.NodeID(i)
		nd, err := NewNode(Config{
			N:         g.N(),
			T:         t,
			Me:        me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Rounds:    roundsOverride,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}
