// nectar-redteam searches for the worst-case Byzantine attack on a chosen
// topology (DESIGN.md §8): it looks for the t-node placement that
// maximizes a damage objective — over every placement when C(n,t) fits
// the evaluation budget, by an annealing walk when it does not — and
// reports it next to a random-placement baseline and the paper's
// guarantee. Runs are bit-for-bit reproducible from the flags.
//
// Examples:
//
//	nectar-redteam -topo harary -k 3 -n 16 -t 2 -attack omitown -objective misclassify
//	nectar-redteam -topo gwheel -c 2 -n 16 -t 2 -attack splitbrain -objective disagree -v
//	nectar-redteam -topo drone -n 16 -d 1.5 -t 2 -attack adaptive -objective disagree -json
//	nectar-redteam -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	nectar "github.com/nectar-repro/nectar"
	"github.com/nectar-repro/nectar/internal/cliutil"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/sig"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nectar-redteam:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("nectar-redteam", flag.ContinueOnError)
	var topo cliutil.TopologyFlags
	topo.Register(fs)
	t := fs.Int("t", 2, "Byzantine bound: slots to place and bound handed to the detector")
	attack := fs.String("attack", string(nectar.AttackSplitBrain), "attack behaviour evaluated at each placement: "+strings.Join(names(nectar.SupportedAttacks(nectar.ProtoNectar)), "|"))
	objective := fs.String("objective", string(nectar.ObjectiveMisclassify), "damage objective: "+strings.Join(names(nectar.AttackObjectives()), "|"))
	budget := fs.Int("budget", 128, "candidate evaluation budget; the search is exact when C(n,t) fits it")
	baseline := fs.Int("baseline", 16, "random placements scored for the baseline")
	trials := fs.Int("trials", 3, "engine trials per candidate evaluation")
	seed := fs.Int64("seed", 1, "random seed (the whole run reproduces from it)")
	scheme := fs.String("scheme", "hmac", "signature scheme: "+strings.Join(sig.Names(), "|"))
	rounds := fs.Int("rounds", 0, "engine horizon override (0 = n-1)")
	jobs := fs.Int("jobs", 0, "parallelism budget for candidate evaluations (0 = GOMAXPROCS; never changes results)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	verbose := fs.Bool("v", false, "print the full search trace")
	list := fs.Bool("list", false, "print valid attacks, objectives, topologies, schemes and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printLists(out)
		return nil
	}

	res, err := nectar.RunRedTeam(nectar.RedTeamSpec{
		Name:            topo.Kind,
		Topology:        func(rng *rand.Rand) (*graph.Graph, error) { return topo.Build(rng) },
		T:               *t,
		Attack:          nectar.AttackKind(*attack),
		Objective:       nectar.AttackObjective(*objective),
		Budget:          *budget,
		BaselineSamples: *baseline,
		Trials:          *trials,
		Seed:            *seed,
		SchemeName:      *scheme,
		Rounds:          *rounds,
		Jobs:            *jobs,
	})
	if err != nil {
		return err
	}

	if *asJSON {
		type stepJSON struct {
			Eval      int     `json:"eval"`
			Placement string  `json:"placement"`
			Damage    float64 `json:"damage"`
			Best      float64 `json:"best"`
		}
		var trace []stepJSON
		if *verbose {
			for _, s := range res.Trace {
				trace = append(trace, stepJSON{s.Eval, s.Placement.Key(), s.Damage, s.Best})
			}
		}
		return json.NewEncoder(out).Encode(map[string]any{
			"topology":        topo.Kind,
			"n":               res.N,
			"edges":           res.Edges,
			"kappa":           res.Kappa,
			"t":               *t,
			"attack":          *attack,
			"objective":       *objective,
			"guarantee":       res.Guarantee,
			"guarantee_holds": res.GuaranteeHolds,
			"placement":       res.Best.Placement.Key(),
			"damage":          res.Best.Damage,
			"evals":           res.Best.Evals,
			"exact":           res.Best.Exact,
			"accuracy":        res.BestMetrics.Accuracy,
			"agreement":       res.BestMetrics.Agreement,
			"kb_per_node":     res.BestMetrics.KBPerNode,
			"random_mean":     res.Baseline.Mean,
			"random_best":     res.BaselineBest,
			"gain":            res.Gain(),
			"trace":           trace,
		})
	}

	fmt.Fprintf(out, "topology      %s (n=%d, m=%d, κ=%d)\n", topo.Kind, res.N, res.Edges, res.Kappa)
	fmt.Fprintf(out, "guarantee     %s\n", res.Guarantee)
	fmt.Fprintf(out, "search        %s via %s, %s (budget %d, %d trials/candidate, seed %d)\n",
		*objective, *attack, searchKind(res.Best.Exact), *budget, *trials, *seed)
	if *verbose {
		for _, s := range res.Trace {
			marker := " "
			if s.Damage == s.Best {
				marker = "*"
			}
			fmt.Fprintf(out, "  eval %3d %s [%s] damage %.3f (best %.3f)\n",
				s.Eval, marker, s.Placement.Key(), s.Damage, s.Best)
		}
	}
	fmt.Fprintf(out, "searched      damage %.3f at placement [%s] after %d evals\n",
		res.Best.Damage, res.Best.Placement.Key(), res.Best.Evals)
	fmt.Fprintf(out, "  metrics     accuracy=%.2f agreement=%.2f kb/node=%.1f\n",
		res.BestMetrics.Accuracy, res.BestMetrics.Agreement, res.BestMetrics.KBPerNode)
	fmt.Fprintf(out, "random        mean %.3f ± %.3f (best %.3f over %d placements)\n",
		res.Baseline.Mean, res.Baseline.CI95, res.BaselineBest, res.Baseline.N)
	fmt.Fprintf(out, "gain          %+.3f over aleatory placement\n", res.Gain())
	return nil
}

// printLists prints the valid values of every enumerated flag, reusing
// the canonical lists instead of burying them in error text.
func printLists(out *os.File) {
	fmt.Fprintf(out, "attacks:     %s\n", strings.Join(names(nectar.SupportedAttacks(nectar.ProtoNectar)), " "))
	fmt.Fprintf(out, "objectives:  %s\n", strings.Join(names(nectar.AttackObjectives()), " "))
	fmt.Fprintf(out, "topologies:  %s\n", strings.Join(cliutil.TopologyKinds(), " "))
	fmt.Fprintf(out, "schemes:     %s\n", strings.Join(sig.Names(), " "))
}

// searchKind names the search the budget picked.
func searchKind(exact bool) string {
	if exact {
		return "every placement"
	}
	return "annealing walk"
}

// names lists the string values of xs.
func names[T ~string](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = string(x)
	}
	return out
}
