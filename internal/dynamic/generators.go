package dynamic

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// The generators below compile stochastic dynamic-network models into
// explicit event lists. They consume an explicit *rand.Rand and iterate
// edges and nodes in sorted order, so a (parameters, seed) pair
// reproduces a schedule bit-for-bit — the same discipline the static
// scenario generators follow (DESIGN.md §3).

// Flapping generates per-round independent link flapping over base: every
// up edge goes down with probability downProb and every down edge
// recovers with probability upProb, at each round boundary in
// [2, horizon]. The stationary fraction of down links approaches
// downProb/(downProb+upProb).
func Flapping(base *graph.Graph, downProb, upProb float64, horizon int, rng *rand.Rand) (*EdgeSchedule, error) {
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("dynamic: Flapping requires a non-empty base graph")
	}
	if !(downProb >= 0 && downProb <= 1 && upProb >= 0 && upProb <= 1) { // NaN fails too
		return nil, fmt.Errorf("dynamic: Flapping probabilities must be in [0,1], got down=%v up=%v", downProb, upProb)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("dynamic: Flapping horizon must be >= 1, got %d", horizon)
	}
	edges := base.Edges()
	down := make([]bool, len(edges))
	s := &EdgeSchedule{Base: base}
	for r := 2; r <= horizon; r++ {
		for i, e := range edges {
			if !down[i] && rng.Float64() < downProb {
				down[i] = true
				s.Events = append(s.Events, Event{Round: r, Kind: EdgeDown, Edge: e})
			} else if down[i] && rng.Float64() < upProb {
				down[i] = false
				s.Events = append(s.Events, Event{Round: r, Kind: EdgeUp, Edge: e})
			}
		}
	}
	return s, nil
}

// PoissonChurn generates node churn over base: each present node leaves
// with probability leaveRate per round (the discrete-time Poisson
// arrival), and each absent node rejoins with probability 1/meanDowntime
// per round (geometric downtime with the given mean, in rounds). Events
// span round boundaries in [2, horizon].
func PoissonChurn(base *graph.Graph, leaveRate, meanDowntime float64, horizon int, rng *rand.Rand) (*EdgeSchedule, error) {
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("dynamic: PoissonChurn requires a non-empty base graph")
	}
	if !(leaveRate >= 0 && leaveRate <= 1) { // NaN fails too
		return nil, fmt.Errorf("dynamic: PoissonChurn leaveRate must be in [0,1], got %v", leaveRate)
	}
	if !(meanDowntime >= 1) { // NaN fails too
		return nil, fmt.Errorf("dynamic: PoissonChurn meanDowntime must be >= 1 round, got %v", meanDowntime)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("dynamic: PoissonChurn horizon must be >= 1, got %d", horizon)
	}
	rejoinProb := 1 / meanDowntime
	absent := make([]bool, base.N())
	s := &EdgeSchedule{Base: base}
	for r := 2; r <= horizon; r++ {
		for v := 0; v < base.N(); v++ {
			if !absent[v] && rng.Float64() < leaveRate {
				absent[v] = true
				s.Events = append(s.Events, Event{Round: r, Kind: NodeLeave, Node: ids.NodeID(v)})
			} else if absent[v] && rng.Float64() < rejoinProb {
				absent[v] = false
				s.Events = append(s.Events, Event{Round: r, Kind: NodeJoin, Node: ids.NodeID(v)})
			}
		}
	}
	return s, nil
}

// PartitionHeal generates the canonical split/heal experiment: at
// cutRound every base edge between the ID-halves {0..⌈n/2⌉-1} and the
// rest goes down (for a drone base graph these are exactly the two
// scatters), and at healRound (0 = never) they come back. The graph is
// partitioned in between — a ground-truth partitionability flip in each
// direction, for detection-latency measurements.
func PartitionHeal(base *graph.Graph, cutRound, healRound int) (*EdgeSchedule, error) {
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("dynamic: PartitionHeal requires a non-empty base graph")
	}
	if cutRound < 2 {
		return nil, fmt.Errorf("dynamic: PartitionHeal cutRound must be >= 2, got %d", cutRound)
	}
	if healRound != 0 && healRound <= cutRound {
		return nil, fmt.Errorf("dynamic: PartitionHeal healRound %d must exceed cutRound %d (or be 0)", healRound, cutRound)
	}
	firstHalf := ids.NodeID((base.N() + 1) / 2)
	s := &EdgeSchedule{Base: base}
	for _, e := range base.Edges() {
		if e.U < firstHalf && e.V >= firstHalf {
			s.Events = append(s.Events, Event{Round: cutRound, Kind: EdgeDown, Edge: e})
			if healRound > 0 {
				s.Events = append(s.Events, Event{Round: healRound, Kind: EdgeUp, Edge: e})
			}
		}
	}
	sortEvents(s.Events)
	return s, nil
}

// MobilityConfig parameterizes DroneMobility.
type MobilityConfig struct {
	// N is the fleet size.
	N int
	// Radius is the communication scope (edges join drones within it).
	Radius float64
	// StepRounds is the number of rounds between waypoint updates (the
	// fleet's time scale; independent of the detector's epoch length).
	StepRounds int
	// Steps is the number of waypoint updates after the initial layout.
	Steps int
	// Distance gives the barycenter separation at each step (step 0 is
	// the initial layout) — the paper's d, now a trajectory. Required.
	Distance func(step int) float64
	// Jitter is the standard deviation of the per-step Brownian motion
	// each drone adds to its squad-relative position (0 = rigid squads).
	Jitter float64
}

// DroneMobility compiles a mobile two-squad fleet into an EdgeSchedule:
// the initial layout is the §V-B drone scatter at Distance(0); at every
// step the squads move to Distance(step) apart (drones keeping their
// squad-relative offsets, plus optional Brownian jitter), the geometric
// graph is recomputed with topology.GeometricGraph, and the diff against
// the previous step becomes edge events at round step·StepRounds+1.
func DroneMobility(cfg MobilityConfig, rng *rand.Rand) (*EdgeSchedule, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("dynamic: DroneMobility requires N >= 1, got %d", cfg.N)
	}
	if cfg.Radius <= 0 {
		return nil, fmt.Errorf("dynamic: DroneMobility requires Radius > 0, got %v", cfg.Radius)
	}
	if cfg.StepRounds < 1 || cfg.Steps < 0 {
		return nil, fmt.Errorf("dynamic: DroneMobility requires StepRounds >= 1 and Steps >= 0, got %d and %d", cfg.StepRounds, cfg.Steps)
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("dynamic: DroneMobility requires a Distance trajectory")
	}
	if d := cfg.Distance(0); d < 0 {
		return nil, fmt.Errorf("dynamic: DroneMobility Distance(0) = %v must be >= 0", d)
	}
	base, pts, err := topology.Drone(cfg.N, cfg.Distance(0), cfg.Radius, rng)
	if err != nil {
		return nil, err
	}
	// Squad-relative offsets: squad A around (0,0), squad B around (d,0).
	firstHalf := (cfg.N + 1) / 2
	offsets := make([]topology.Point, cfg.N)
	for i, p := range pts {
		offsets[i] = p
		if i >= firstHalf {
			offsets[i].X -= cfg.Distance(0)
		}
	}
	s := &EdgeSchedule{Base: base}
	prev := base
	for step := 1; step <= cfg.Steps; step++ {
		d := cfg.Distance(step)
		if d < 0 {
			return nil, fmt.Errorf("dynamic: DroneMobility Distance(%d) = %v must be >= 0", step, d)
		}
		cur := make([]topology.Point, cfg.N)
		for i := range cur {
			if cfg.Jitter > 0 {
				offsets[i].X += rng.NormFloat64() * cfg.Jitter
				offsets[i].Y += rng.NormFloat64() * cfg.Jitter
			}
			cur[i] = offsets[i]
			if i >= firstHalf {
				cur[i].X += d
			}
		}
		next := topology.GeometricGraph(cur, cfg.Radius)
		round := step*cfg.StepRounds + 1
		for _, e := range prev.Edges() {
			if !next.HasEdge(e.U, e.V) {
				s.Events = append(s.Events, Event{Round: round, Kind: EdgeDown, Edge: e})
			}
		}
		for _, e := range next.Edges() {
			if !prev.HasEdge(e.U, e.V) {
				s.Events = append(s.Events, Event{Round: round, Kind: EdgeUp, Edge: e})
			}
		}
		prev = next
	}
	return s, nil
}

// LinearDrift returns the straight-line separation trajectory
// d(step) = d0 + step·perStep, clamped at 0 — squads drifting apart
// (positive perStep) or closing in (negative).
func LinearDrift(d0, perStep float64) func(step int) float64 {
	return func(step int) float64 {
		d := d0 + float64(step)*perStep
		if d < 0 {
			return 0
		}
		return d
	}
}
