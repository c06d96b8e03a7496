// Package scope defines which packages the nectar-vet analyzers gate
// (DESIGN.md §11). One list, shared by every analyzer, so adding a
// package to the deterministic core enrolls it in all invariants at
// once.
package scope

import "github.com/nectar-repro/nectar/internal/analysis/nvet"

// Deterministic accepts every package whose outputs must be
// bit-reproducible from (Spec, Seed): the engine root, the protocol
// stacks, the experiment pipeline, reporting — everything except the
// layers that legitimately talk to the real world:
//
//   - cmd/ and examples/ are interactive entry points (wall-clock
//     progress timing, OS-entropy-free but user-chosen seeds);
//   - internal/tcpnet drives real sockets on real deadlines;
//   - internal/analysis is the checker itself.
var Deterministic = nvet.ScopeNotUnder(
	"cmd",
	"examples",
	"internal/tcpnet",
	"internal/analysis",
)

// Protocols accepts the packages bound by the rounds.Protocol buffer
// contract (DESIGN.md §9): implementations and wrappers that receive
// engine-owned buffers in Deliver and hand out arena-backed slices from
// Emit. internal/wire is deliberately absent — it is the buffer layer
// whose aliasing the contract is about.
var Protocols = nvet.ScopeUnder(
	"", // module root: engine façade, Simulate wrappers
	"internal/nectar",
	"internal/adversary",
	"internal/mtg",
	"internal/rounds",
)
