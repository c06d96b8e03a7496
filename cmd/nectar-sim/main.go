// nectar-sim runs a single NECTAR execution on a chosen topology with
// optional Byzantine nodes and prints every correct node's decision. With
// -churn it instead runs epoch-based re-detection over a time-varying
// topology (link flapping, node churn, partition/heal, or drone
// mobility) and reports per-epoch decisions, ground-truth κ vs t, and
// detection latency. A run, or an epoch, has n-1 rounds (Alg. 1) and ends
// early once every node is quiescent; no flag changes the horizon.
//
// Examples:
//
//	nectar-sim -topo harary -k 4 -n 20 -t 1
//	nectar-sim -topo drone -n 35 -d 6 -radius 1.2 -t 2
//	nectar-sim -topo star -n 9 -t 1 -byz 0 -behavior splitbrain -blocked 5,6,7,8
//	nectar-sim -topo drone -n 20 -radius 1.8 -t 2 -churn mobility -d 0 -drift 0.8 -epochs 8
//	nectar-sim -topo harary -k 6 -n 20 -t 2 -churn nodes -churn-rate 0.02 -epochs 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"

	nectar "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/cliutil"
	"github.com/nectar-repro/nectar/internal/sig"
)

// behaviors lists the -behavior values: the NECTAR attacks of the
// catalogue but none, which Simulate refuses.
func behaviors() []string {
	var out []string
	for _, a := range nectar.SupportedAttacks(nectar.ProtoNectar) {
		if a != nectar.AttackNone {
			out = append(out, string(a))
		}
	}
	return out
}

// knownChurn lists the -churn workloads buildSchedule accepts.
func knownChurn() []string { return []string{"flap", "nodes", "partition", "mobility"} }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nectar-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nectar-sim", flag.ContinueOnError)
	var topo cliutil.TopologyFlags
	topo.Register(fs)
	t := fs.Int("t", 1, "assumed Byzantine bound")
	seed := fs.Int64("seed", 1, "random seed")
	scheme := fs.String("scheme", "ed25519", "signature scheme: "+strings.Join(sig.Names(), "|"))
	byzList := fs.String("byz", "", "comma-separated Byzantine node IDs")
	behavior := fs.String("behavior", string(nectar.AttackCrash),
		"Byzantine behavior: "+strings.Join(behaviors(), "|"))
	blockedList := fs.String("blocked", "", "nodes split-brain Byzantine nodes stonewall")
	churn := fs.String("churn", "",
		"dynamic-network workload: flap|nodes|partition|mobility (empty = static single run)")
	epochs := fs.Int("epochs", 0, "detection epochs under -churn (0 = cover the schedule)")
	churnRate := fs.Float64("churn-rate", 0.02,
		"per-round link down probability (flap) or node leave probability (nodes)")
	drift := fs.Float64("drift", 0.5, "barycenter separation added per epoch (mobility)")
	workers := fs.Int("workers", 0, "parallelism budget (0 = GOMAXPROCS): engine workers, and under -churn epochs in flight first; never changes results")
	tracePath := fs.String("trace", "",
		"stream an engine event trace to this .jsonl file (analyze with nectar-trace, convert with nectar-trace chrome)")
	metricsOut := fs.String("metrics-out", "",
		"with -churn: write detection-quality metrics (kappa-margin and detection-latency histograms) in Prometheus text format to this file")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	list := fs.Bool("list", false, "print valid behaviors, schemes, topologies, churn workloads and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checked before any schedule is built: a negative -epochs would
	// otherwise surface as a schedule horizon error that names no flag.
	if *epochs < 0 {
		return fmt.Errorf("-epochs must be >= 0, got %d", *epochs)
	}
	if *list {
		fmt.Printf("behaviors:   %s\n", strings.Join(behaviors(), " "))
		fmt.Printf("schemes:     %s\n", strings.Join(sig.Names(), " "))
		fmt.Printf("topologies:  %s\n", strings.Join(cliutil.TopologyKinds(), " "))
		fmt.Printf("churn:       %s\n", strings.Join(knownChurn(), " "))
		return nil
	}

	byz, err := cliutil.ParseNodeList(*byzList)
	if err != nil {
		return fmt.Errorf("-byz: %w", err)
	}
	blocked, err := cliutil.ParseNodeList(*blockedList)
	if err != nil {
		return fmt.Errorf("-blocked: %w", err)
	}
	// Fail fast on a typo'd behavior, naming the valid ones, before any
	// topology or crypto setup runs.
	attack := nectar.AttackKind(*behavior)
	if len(byz) > 0 && !slices.Contains(behaviors(), *behavior) {
		return fmt.Errorf("unknown -behavior %q (valid: %s)", *behavior, strings.Join(behaviors(), ", "))
	}
	if len(blocked) > 0 && attack != nectar.AttackSplitBrain {
		return fmt.Errorf("-blocked only applies to -behavior %s (got %q)", nectar.AttackSplitBrain, *behavior)
	}
	if len(blocked) > 0 && len(byz) == 0 {
		return fmt.Errorf("-blocked requires -byz to name the split-brain node(s)")
	}
	// Blocked only applies to split-brain nodes; Simulate rejects entries
	// for any other behaviour.
	byzantine := make(map[nectar.NodeID]nectar.AttackKind, len(byz))
	blockedMap := make(map[nectar.NodeID][]nectar.NodeID)
	for _, b := range byz {
		byzantine[b] = attack
		if attack == nectar.AttackSplitBrain {
			blockedMap[b] = blocked
		}
	}

	if *churn != "" {
		// Resolve the default once: buildSchedule (workload horizon) and
		// the detection run must agree on the epoch count.
		if *epochs == 0 {
			*epochs = 6
		}
		return runDynamic(&topo, dynFlags{
			kind: *churn, t: *t, seed: *seed, scheme: *scheme,
			epochs: *epochs, rate: *churnRate,
			drift: *drift, byzantine: byzantine, blocked: blockedMap,
			workers: *workers, asJSON: *asJSON, tracePath: *tracePath,
			metricsOut: *metricsOut,
		})
	}
	if *metricsOut != "" {
		return fmt.Errorf("-metrics-out only applies to -churn runs")
	}

	rng := rand.New(rand.NewSource(*seed))
	g, err := topo.Build(rng)
	if err != nil {
		return err
	}
	cfg := nectar.SimulationConfig{
		Graph:      g,
		T:          *t,
		Seed:       *seed,
		SchemeName: *scheme,
		Byzantine:  byzantine,
		Blocked:    blockedMap,
		Workers:    *workers,
	}
	var sink *cliutil.TraceSink
	if *tracePath != "" {
		var terr error
		if sink, terr = cliutil.OpenTrace(*tracePath, nil); terr != nil {
			return terr
		}
		cfg.Tracer = sink
	}
	res, err := nectar.Simulate(cfg)
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
	}

	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"topology":      topo.Kind,
			"n":             g.N(),
			"edges":         g.M(),
			"t":             *t,
			"byzantine":     byz,
			"decision":      res.Decision.String(),
			"agreement":     res.Agreement,
			"confirmed":     res.Confirmed,
			"rounds":        res.Rounds,
			"active_rounds": res.ActiveRounds,
			"bytes_sent":    res.BytesSent,
			// One obs-backed struct, not hand-copied fields: keys stay
			// verify_cache_hits etc. via FastPath's JSON tags.
			"fast_path": res.FastPath,
		})
	}
	fmt.Printf("topology      %s (n=%d, m=%d, κ=%d)\n", topo.Kind, g.N(), g.M(), g.Connectivity())
	fmt.Printf("assumed t     %d  (Byzantine present: %d, behavior %s)\n", *t, len(byz), *behavior)
	fmt.Printf("rounds        %d executed of %d horizon (quiescence early exit)\n", res.ActiveRounds, res.Rounds)
	fmt.Printf("decision      %v (agreement=%v, confirmed=%v)\n", res.Decision, res.Agreement, res.Confirmed)
	var total int64
	for _, b := range res.BytesSent {
		total += b
	}
	fmt.Printf("traffic       %.1f KB total, %.1f KB/node (unicast)\n",
		float64(total)/1000, float64(total)/1000/float64(g.N()))
	if checks := res.VerifyCacheHits + res.VerifyCacheMisses; checks > 0 {
		fmt.Printf("fast path     %.0f%% of signature checks without Verify (%d/%d), %d lazy discards, %d shared decisions\n",
			100*float64(res.VerifyCacheHits)/float64(checks),
			res.VerifyCacheHits, checks, res.LazyDiscards, res.DecideCacheHits)
	}
	if !res.Agreement {
		for id, o := range res.Outcomes {
			fmt.Printf("  node %v: %v (confirmed=%v, reachable=%d)\n", id, o.Decision, o.Confirmed, o.Reachable)
		}
	}
	return nil
}

// dynFlags carries the -churn run's parameters.
type dynFlags struct {
	kind       string
	t          int
	seed       int64
	scheme     string
	epochs     int
	rate       float64
	drift      float64
	workers    int
	byzantine  map[nectar.NodeID]nectar.AttackKind
	blocked    map[nectar.NodeID][]nectar.NodeID
	asJSON     bool
	tracePath  string
	metricsOut string
}

// buildSchedule compiles the selected dynamic workload over the chosen
// base topology, in epochs of the n-1 rounds SimulateDynamic runs.
func buildSchedule(topo *cliutil.TopologyFlags, f dynFlags, rng *rand.Rand) (*nectar.EdgeSchedule, error) {
	epochRounds := topo.N - 1
	epochs := f.epochs
	horizon := epochs * epochRounds
	switch f.kind {
	case "mobility":
		// The drone fleet itself moves: -d is the initial separation,
		// -drift the per-epoch drift, -radius the communication scope.
		return nectar.DroneMobilitySchedule(nectar.MobilityConfig{
			N:          topo.N,
			Radius:     topo.Radius,
			StepRounds: epochRounds,
			Steps:      epochs - 1,
			Distance:   nectar.LinearDrift(topo.D, f.drift),
		}, rng)
	case "flap":
		g, err := topo.Build(rng)
		if err != nil {
			return nil, err
		}
		return nectar.FlappingSchedule(g, f.rate, 0.3, horizon, rng)
	case "nodes":
		g, err := topo.Build(rng)
		if err != nil {
			return nil, err
		}
		return nectar.PoissonChurnSchedule(g, f.rate, float64(epochRounds), horizon, rng)
	case "partition":
		g, err := topo.Build(rng)
		if err != nil {
			return nil, err
		}
		// Cut at the second epoch's first round, heal two epochs later.
		heal := 3*epochRounds + 1
		if epochs <= 3 {
			heal = 0
		}
		return nectar.PartitionHealSchedule(g, epochRounds+1, heal)
	}
	return nil, fmt.Errorf("unknown -churn workload %q (valid: %s)", f.kind, strings.Join(knownChurn(), ", "))
}

// runDynamic executes and prints an epoch-based re-detection run.
func runDynamic(topo *cliutil.TopologyFlags, f dynFlags) error {
	sched, err := buildSchedule(topo, f, rand.New(rand.NewSource(f.seed)))
	if err != nil {
		return err
	}
	cfg := nectar.DynamicConfig{
		Schedule:   sched,
		T:          f.t,
		Seed:       f.seed,
		SchemeName: f.scheme,
		Epochs:     f.epochs,
		Byzantine:  f.byzantine,
		Blocked:    f.blocked,
		Workers:    f.workers,
	}
	var sink *cliutil.TraceSink
	if f.tracePath != "" {
		var terr error
		if sink, terr = cliutil.OpenTrace(f.tracePath, nil); terr != nil {
			return terr
		}
		cfg.Tracer = sink
	}
	res, err := nectar.SimulateDynamic(cfg)
	if err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
	}
	if f.metricsOut != "" {
		reg := nectar.NewMetricsRegistry()
		res.PublishMetrics(reg, f.t)
		if err := cliutil.WriteMetrics(f.metricsOut, reg); err != nil {
			return err
		}
	}

	mean, detected, undetected := res.DetectionLatency()
	if f.asJSON {
		type epochJSON struct {
			Epoch        int    `json:"epoch"`
			Kappa        int    `json:"kappa"`
			Truth        bool   `json:"truth_partitionable"`
			Decision     string `json:"decision"`
			Agreement    bool   `json:"agreement"`
			Confirmed    bool   `json:"confirmed"`
			Absent       int    `json:"absent"`
			ActiveRounds int    `json:"active_rounds"`
		}
		eps := make([]epochJSON, len(res.Epochs))
		for i, ep := range res.Epochs {
			eps[i] = epochJSON{
				Epoch: ep.Epoch, Kappa: ep.Kappa,
				Truth:    ep.TruthPartitionable,
				Decision: ep.Decision.String(), Agreement: ep.Agreement,
				Confirmed: ep.Confirmed, Absent: len(ep.Absent),
				ActiveRounds: ep.ActiveRounds,
			}
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"workload":            f.kind,
			"topology":            topo.Kind,
			"n":                   sched.Base.N(),
			"t":                   f.t,
			"epoch_rounds":        res.EpochRounds,
			"epochs":              eps,
			"flips":               res.Flips,
			"mean_latency_epochs": mean,
			"flips_detected":      detected,
			"flips_undetected":    undetected,
		})
	}

	fmt.Printf("workload      %s over %s (n=%d, t=%d, %d-round epochs)\n",
		f.kind, topo.Kind, sched.Base.N(), f.t, res.EpochRounds)
	fmt.Printf("%-6s %-4s %-8s %-20s %-10s %-7s %s\n",
		"epoch", "κ", "truth", "decision", "agreement", "absent", "rounds")
	for _, ep := range res.Epochs {
		truth := "NOT_PART"
		if ep.TruthPartitionable {
			truth = "PART"
		}
		fmt.Printf("%-6d %-4d %-8s %-20v %-10v %-7d %d/%d\n",
			ep.Epoch, ep.Kappa, truth, ep.Decision, ep.Agreement,
			len(ep.Absent), ep.ActiveRounds, ep.Rounds)
	}
	if len(res.Flips) == 0 {
		fmt.Println("flips         none (ground truth never changed)")
		return nil
	}
	for _, fl := range res.Flips {
		verdict := "NOT_PARTITIONABLE"
		if fl.ToPartitionable {
			verdict = "PARTITIONABLE"
		}
		if fl.Latency >= 0 {
			fmt.Printf("flip @epoch %-3d -> %-18s detected at epoch %d (latency %d)\n",
				fl.Epoch, verdict, fl.DetectedEpoch, fl.Latency)
		} else {
			fmt.Printf("flip @epoch %-3d -> %-18s undetected\n", fl.Epoch, verdict)
		}
	}
	fmt.Printf("latency       %.2f epochs mean (%d detected, %d undetected)\n",
		mean, detected, undetected)
	return nil
}
