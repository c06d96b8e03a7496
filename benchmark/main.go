// Command benchmark is the repository's one benchmark: five closed-loop
// workloads, eleven end-to-end metrics from untraced runs, and a per-layer
// trace from a separate traced run of the same inputs. README.md has the
// protocol and the reasoning; BENCHMARK.json the contract.
//
//	bash benchmark/run.sh                        every workload, both runs
//	bash benchmark/run.sh -workload tree-slim    some workloads
//	bash benchmark/run.sh -compare a.json b.json two result files
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the contract's: one workload measured one way, with the
// result as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	started := time.Now()
	if err := run(started); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// repoRoot finds the checkout from the working directory, which is the
// root under run.sh and the benchmark directory under `go run .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

func run(started time.Time) error {
	var (
		seed      = flag.Int64("seed", 1, "offsets every generator and run seed")
		names     = flag.String("workload", "", "workloads to run, comma-separated (default: all)")
		passes    = flag.Int("passes", 8, "fresh child processes per workload in the untraced run")
		seconds   = flag.Int("seconds", 16, "measuring time per workload in the untraced run; the traced run takes a quarter")
		trace     = flag.String("trace", "both", "0/false: end-to-end metrics only; 1/true: per-layer metrics only; both")
		out       = flag.String("out", "", "result file (default benchmark/out/result.json)")
		compare   = flag.Bool("compare", false, "compare the two result files given as arguments")
		child     = flag.Bool("child", false, "internal: run one pass and print its report")
		pass      = flag.Int("pass", 0, "internal: the child's pass index")
		budget    = flag.Duration("budget", 0, "internal: the child's measuring time")
		tracedArg = flag.Bool("traced", false, "internal: the child runs the composed, traced op")
	)
	flag.Parse()

	if *child {
		spec := passSpec{Workload: *names, Seed: *seed, Pass: *pass, Passes: *passes, Budget: *budget, Traced: *tracedArg}
		rep, err := runPass(spec, started)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}

	o := options{seed: *seed, passes: *passes, seconds: *seconds, untraced: true, traced: true,
		outDir: filepath.Join(root, "benchmark", "out"), pass: spawnPass}
	if *trace != "both" {
		on, err := strconv.ParseBool(*trace)
		if err != nil {
			return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
		}
		o.untraced, o.traced = !on, on
	}
	if *passes < 1 || *seconds < 1 {
		return fmt.Errorf("-passes and -seconds must be positive")
	}
	o.workloads = workloads
	if *names != "" {
		o.workloads = nil
		for _, name := range strings.Split(*names, ",") {
			w := workloadByName(name)
			if w == nil {
				return fmt.Errorf("unknown workload %q", name)
			}
			o.workloads = append(o.workloads, w)
		}
	}

	res, err := measure(o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	path := *out
	if path == "" {
		path = filepath.Join(o.outDir, "result.json")
	}
	if err := writeJSON(path, res); err != nil {
		return err
	}
	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
	}
	if len(res.Workloads) == 1 && o.untraced != o.traced {
		fmt.Println(res.Workloads[0].contractLine())
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their checks", failed)
	}
	return nil
}
