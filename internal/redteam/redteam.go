// Package redteam implements worst-case attack search: given a fixed
// topology and a Byzantine budget t, it looks for the t-node placement
// that hurts the detector the most under a chosen damage objective
// (DESIGN.md §8) — exactly, over every placement, when the space fits the
// evaluation budget, and by an annealing walk when it does not.
//
// NECTAR's guarantees (Agreement, Validity, 2t-Sensitivity) are worst-case
// over Byzantine strategies, but a scripted evaluation only exercises the
// attack configurations someone thought of. Related work on data
// falsification frames the dual question — what is the *optimal* attack
// configuration, and how far is the detector's empirical worst case from
// its proven bound? This package supplies the search half of that
// question; internal/harness supplies the evaluation half (RunRedTeam)
// and internal/report the frontier comparison (the "redteam" experiment).
//
// The package deliberately knows nothing about protocols: an Evaluator
// callback maps a candidate Placement to its damage score, and the search
// only decides which candidates to spend the evaluation budget on. All
// randomness flows through an explicit *rand.Rand (the §3 reproducibility
// discipline): identical (graph, t, budget, seed) inputs explore the
// identical candidate sequence bit for bit.
package redteam

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Placement is a candidate assignment of the t Byzantine slots: a sorted,
// duplicate-free vertex set. Its Key doubles as the evaluation-cache key.
type Placement []ids.NodeID

// NewPlacement builds a normalized placement from members.
func NewPlacement(members ...ids.NodeID) Placement {
	p := append(Placement(nil), members...)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	out := p[:0]
	for i, v := range p {
		if i == 0 || v != p[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Has reports membership.
func (p Placement) Has(v ids.NodeID) bool {
	for _, m := range p {
		if m == v {
			return true
		}
	}
	return false
}

// Clone returns an independent copy.
func (p Placement) Clone() Placement {
	return append(Placement(nil), p...)
}

// Key returns a canonical string form ("3,7,12") usable as a map key.
func (p Placement) Key() string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	return b.String()
}

// Set returns the placement as an ids.Set.
func (p Placement) Set() ids.Set { return ids.NewSet(p...) }

// Objective selects the damage the adversary maximizes.
type Objective string

const (
	// ObjMisclassify maximizes the fraction of correct nodes whose
	// decision contradicts ground truth (1 − mean decision accuracy).
	ObjMisclassify Objective = "misclassify"
	// ObjDisagree maximizes broken agreement: the fraction of trials in
	// which correct nodes decided differently (1 − agreement rate).
	ObjDisagree Objective = "disagree"
	// ObjTraffic maximizes the traffic the attack forces out of correct
	// nodes, in KB per correct node (multicast accounting) — the
	// amplification objective.
	ObjTraffic Objective = "traffic"
)

// Objectives lists every supported objective.
func Objectives() []Objective {
	return []Objective{ObjMisclassify, ObjDisagree, ObjTraffic}
}

// Valid reports whether o names a supported objective.
func (o Objective) Valid() bool {
	for _, k := range Objectives() {
		if o == k {
			return true
		}
	}
	return false
}

// EvalMetrics are the summary metrics of one candidate evaluation, as
// produced by the harness: mean decision accuracy, agreement rate, and
// mean KB sent per correct node.
type EvalMetrics struct {
	Accuracy  float64
	Agreement float64
	KBPerNode float64
}

// Damage folds metrics into the scalar the search maximizes.
func (o Objective) Damage(m EvalMetrics) float64 {
	switch o {
	case ObjDisagree:
		return 1 - m.Agreement
	case ObjTraffic:
		return m.KBPerNode
	}
	return 1 - m.Accuracy // ObjMisclassify and the zero value
}

// Evaluator maps a candidate placement to its damage score. Evaluations
// must be pure functions of the placement (the search caches them).
type Evaluator func(p Placement) (float64, error)

// Step is one trace entry of a search: the placement evaluated, its
// damage, and the best damage seen so far (after this evaluation).
type Step struct {
	// Eval is the 1-based evaluation index (cache hits don't count).
	Eval int
	// Placement is the candidate evaluated.
	Placement Placement
	// Damage is the candidate's score.
	Damage float64
	// Best is the running best damage including this candidate.
	Best float64
}

// Outcome is the result of one search.
type Outcome struct {
	// Placement is the best candidate found.
	Placement Placement
	// Damage is its score.
	Damage float64
	// Evals is the number of evaluator calls spent (≤ budget).
	Evals int
	// Exact reports that every placement was scored, so Damage is the
	// true optimum.
	Exact bool
}

// errBudget signals internally that the evaluation budget is exhausted.
var errBudget = fmt.Errorf("redteam: budget exhausted")
