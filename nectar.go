// Package nectar is a complete Go implementation of NECTAR — "Partition
// Detection in Byzantine Networks" (Bromberg, Decouchant, Sourisseau,
// Taïani; ICDCS 2024) — together with everything needed to reproduce the
// paper's evaluation: the MtG / MtGv2 baselines, topology generators, a
// Byzantine adversary library, a synchronous round engine, a real TCP
// transport, and an experiment harness.
//
// NECTAR solves t-Byzantine-resilient, 2t-sensitive network partition
// detection: all correct nodes decide, within bounded time and in
// agreement, whether t Byzantine nodes could possibly disconnect them
// (PARTITIONABLE) or provably cannot (NOT_PARTITIONABLE), on any graph,
// without knowing the topology in advance.
//
// Three entry points, from highest to lowest level:
//
//   - Simulate: one-call in-memory execution of NECTAR on a topology,
//     optionally with Byzantine behaviours.
//   - RunExperiment: the paper's evaluation harness — repeated seeded
//     trials, attacks, accuracy/agreement/cost statistics.
//   - Node + RunTCP: a single protocol state machine to embed in a real
//     deployment, and a TCP runner for it.
package nectar

import (
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/sig"
)

// Core identifiers and graph types.
type (
	// NodeID identifies a process; systems of n nodes use IDs 0..n-1.
	NodeID = ids.NodeID
	// Graph is an undirected communication graph with exact
	// vertex-connectivity algorithms (Menger / max-flow based).
	Graph = graph.Graph
	// Edge is a normalized undirected edge.
	Edge = graph.Edge
)

// Protocol types re-exported from the core implementation.
type (
	// Decision is NECTAR's verdict.
	Decision = inectar.Decision
	// Outcome is a node's decision plus the `confirmed` validity output.
	Outcome = inectar.Outcome
	// Node is a correct NECTAR process (implements the round protocol).
	Node = inectar.Node
	// Config carries a node's inputs: n, t, Γ(i), neighborhood proofs,
	// and signing/verification capabilities.
	Config = inectar.Config
	// Proof is a proof of neighborhood: unforgeable unless both
	// endpoints are Byzantine.
	Proof = inectar.Proof
	// Stats counts a node's accepted/duplicate/rejected messages.
	Stats = inectar.Stats
)

// Decision values.
const (
	// Undecided means the decision phase has not run.
	Undecided = inectar.Undecided
	// NotPartitionable: no placement of t Byzantine nodes can disconnect
	// the correct nodes.
	NotPartitionable = inectar.NotPartitionable
	// Partitionable: t Byzantine nodes might be able to disconnect
	// correct nodes.
	Partitionable = inectar.Partitionable
)

// Signature substrate.
type (
	// Scheme is a signature scheme with pre-distributed keys.
	Scheme = sig.Scheme
	// Signer is a single node's signing capability.
	Signer = sig.Signer
	// Verifier checks any node's signatures.
	Verifier = sig.Verifier
)

// NewGraph returns an empty undirected graph over n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a graph over n vertices with the given edges.
func GraphFromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// NewEdge returns the normalized edge {u, v}.
func NewEdge(u, v NodeID) Edge { return graph.NewEdge(u, v) }

// NewNode validates cfg and returns a correct NECTAR process.
func NewNode(cfg Config) (*Node, error) { return inectar.NewNode(cfg) }

// NewEd25519Scheme returns the stdlib Ed25519 scheme with deterministic
// per-node keys derived from seed (the production-faithful scheme).
func NewEd25519Scheme(n int, seed int64) Scheme { return sig.NewEd25519(n, seed) }

// NewHMACScheme returns the fast HMAC simulation scheme (identical
// signature sizes, ~50x faster; see DESIGN.md §4).
func NewHMACScheme(n int, seed int64) Scheme { return sig.NewHMAC(n, seed) }

// SchemeByName returns the "ed25519", "hmac" or "slim" scheme, nil otherwise.
func SchemeByName(name string, n int, seed int64) Scheme { return sig.ByName(name, n, seed) }

// MakeProof builds the proof of neighborhood between two signers.
func MakeProof(a, b Signer) Proof { return inectar.MakeProof(a, b) }

// BuildProofs constructs setup-time proofs for every edge of g.
func BuildProofs(scheme Scheme, g *Graph) map[Edge]Proof {
	return inectar.BuildProofs(scheme, g)
}

// NeighborProofs extracts the proofs for edges incident to me, keyed by
// neighbor, as Config.Proofs expects.
func NeighborProofs(all map[Edge]Proof, g *Graph, me NodeID) map[NodeID]Proof {
	return inectar.NeighborProofs(all, g, me)
}

// BuildOption customizes BuildNodes' per-node Config.
type BuildOption = inectar.BuildOption

// BuildNodes constructs one correct NECTAR node per vertex of g
// (simulation convenience; real deployments build Nodes from local
// Configs).
func BuildNodes(g *Graph, t int, scheme Scheme, roundsOverride int, opts ...BuildOption) ([]*Node, error) {
	return inectar.BuildNodes(g, t, scheme, roundsOverride, opts...)
}

// VerifyCache is the verification state shared by the nodes of a run
// (DESIGN.md §9): each node's board, where the node posts what it emits so
// that its neighbours take those messages without a Verify call, and the
// proof ledger, where an edge's first endpoint records its check of the
// edge's proof for the second. Verification is deterministic for every
// provided scheme, so sharing verdicts is semantics-preserving; Simulate
// and the experiment harness create one per trial by default. Build one
// with NewVerifyCache, hand it to WithVerifyCache and read it with Stats;
// Board (with its Post and Defer), Vouched, Proven and Prove are the
// internal API that nectar.Node calls.
type VerifyCache = sig.VerifyCache

// NewVerifyCache returns an empty VerifyCache.
func NewVerifyCache() *VerifyCache { return sig.NewVerifyCache() }

// WithVerifyCache shares a VerifyCache across every node built.
// Lockstep contract: the nodes sharing it are built before any of them runs,
// and a node's posts save its neighbours' Verify calls only while one engine
// — whose barrier separates each round's Emit and Deliver phases — drives
// them all; nodes out of lockstep stay correct and verify. Nodes built here
// sign every relay they emit (only Simulate's and the harness's own builds
// leave a relay's signature to its first reader, DESIGN.md §9). Release the
// cache after the nodes.
func WithVerifyCache(c *VerifyCache) BuildOption { return inectar.WithVerifyCache(c) }

// DecideCache memoizes the decision phase's connectivity predicate across
// nodes with identical discovered views (DESIGN.md §9). Pass it to
// Node.DecideShared; outcomes are bit-identical with and without it.
type DecideCache = inectar.DecideCache

// NewDecideCache returns an empty decision memo.
func NewDecideCache() *DecideCache { return inectar.NewDecideCache() }
