package nectar

import (
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/redteam"
)

// Red-team re-exports: worst-case attack search (DESIGN.md §8). The
// optimizers hunt for the Byzantine placement that maximizes a damage
// objective; RunRedTeam reports the searched worst case next to a random
// baseline and the paper's guarantee.

type (
	// RedTeamSpec configures one attack search.
	RedTeamSpec = harness.RedTeamSpec
	// RedTeamResult reports the searched worst case, the random-placement
	// baseline, and the applicable bound.
	RedTeamResult = harness.RedTeamResult
	// AttackObjective selects the damage the adversary maximizes.
	AttackObjective = redteam.Objective
	// AttackPlacement is a candidate Byzantine slot assignment.
	AttackPlacement = redteam.Placement
	// AttackStep is one entry of a search trace.
	AttackStep = redteam.Step
)

// Damage objectives.
const (
	ObjectiveMisclassify = redteam.ObjMisclassify
	ObjectiveDisagree    = redteam.ObjDisagree
	ObjectiveTraffic     = redteam.ObjTraffic
)

// RunRedTeam executes the search: optimizer × objective over seeded
// candidate evaluations, bit-for-bit reproducible from (Spec, Seed).
func RunRedTeam(spec RedTeamSpec) (*RedTeamResult, error) {
	return harness.RunRedTeam(spec)
}

// AttackObjectives lists the supported damage objectives.
func AttackObjectives() []AttackObjective { return redteam.Objectives() }

// AttackOptimizers lists the supported optimizer names.
func AttackOptimizers() []string { return redteam.OptimizerNames() }

// SupportedAttacks lists the attacks defined for a protocol.
func SupportedAttacks(p ProtocolKind) []AttackKind { return harness.SupportedAttacks(p) }

// Protocols lists the protocols under test.
func Protocols() []ProtocolKind { return harness.Protocols() }
