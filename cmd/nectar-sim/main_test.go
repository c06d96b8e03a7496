package main

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/cliutil"
)

func TestRunBasicTopologies(t *testing.T) {
	cases := [][]string{
		{"-topo", "ring", "-n", "8", "-t", "1", "-scheme", "hmac"},
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "1", "-scheme", "hmac"},
		{"-topo", "drone", "-n", "12", "-d", "2", "-radius", "1.5", "-t", "1", "-scheme", "hmac"},
		{"-topo", "star", "-n", "6", "-t", "1", "-json", "-scheme", "hmac"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunWithByzantine(t *testing.T) {
	args := []string{
		"-topo", "star", "-n", "7", "-t", "1", "-scheme", "hmac",
		"-byz", "0", "-behavior", "splitbrain", "-blocked", "4,5,6",
	}
	if err := run(args); err != nil {
		t.Errorf("run(%v): %v", args, err)
	}
}

func TestRunChurnWorkloads(t *testing.T) {
	cases := [][]string{
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "1", "-scheme", "hmac",
			"-churn", "flap", "-churn-rate", "0.05", "-epochs", "3"},
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "1", "-scheme", "hmac",
			"-churn", "nodes", "-churn-rate", "0.03", "-epochs", "3"},
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "1", "-scheme", "hmac",
			"-churn", "partition", "-epochs", "5"},
		{"-topo", "drone", "-n", "12", "-d", "0", "-radius", "1.8", "-t", "1",
			"-scheme", "hmac", "-churn", "mobility", "-drift", "1.0", "-epochs", "4"},
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "1", "-scheme", "hmac",
			"-churn", "partition", "-epochs", "5", "-json"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // a substring of the error ("" = any error)
	}{
		{[]string{"-topo", "nosuch"}, ""},
		{[]string{"-topo", "harary", "-k", "10", "-n", "5"}, ""},
		{[]string{"-byz", "zzz"}, ""},
		{[]string{"-blocked", "1,bad"}, ""},
		{[]string{"-topo", "ring", "-n", "6", "-t", "1", "-byz", "1,2"}, ""}, // 2 byz > t
		{[]string{"-topo", "ring", "-n", "6", "-scheme", "nosuch"}, ""},
		{[]string{"-topo", "ring", "-n", "6", "-scheme", "insecure"}, `unknown scheme "insecure" (valid: ed25519, hmac, slim)`},
		{[]string{"-topo", "ring", "-n", "6", "-byz", "1", "-behavior", "nosuch"}, ""},
		{[]string{"-topo", "ring", "-n", "6", "-churn", "nosuch"}, ""},
		{[]string{"-topo", "ring", "-n", "6", "-t", "-1", "-scheme", "hmac"}, "nectar: negative T -1"},
		{[]string{"-topo", "ring", "-n", "6", "-t", "-1", "-scheme", "hmac", "-churn", "flap"}, "nectar: negative T -1"},
		{[]string{"-topo", "ring", "-n", "6", "-churn", "flap", "-rounds", "-3"}, "-rounds must be >= 0, got -3"},
		{[]string{"-topo", "ring", "-n", "6", "-churn", "flap", "-epochs", "-2"}, "-epochs must be >= 0, got -2"},
		{[]string{"-topo", "ring", "-n", "6", "-churn", "flap", "-kappa", "incremental"}, "flag provided but not defined: -kappa"},
		{[]string{"-topo", "ring", "-n", "8", "-churn", "flap", "-churn-rate", "NaN", "-epochs", "2"}, "Flapping probabilities must be in [0,1]"},
		{[]string{"-topo", "ring", "-n", "8", "-churn", "nodes", "-churn-rate", "NaN", "-epochs", "2"}, "PoissonChurn leaveRate must be in [0,1]"},
		{[]string{"-topo", "drone", "-n", "8", "-radius", "NaN"}, "Drone requires d >= 0 and radius > 0"},
		{[]string{"-topo", "drone", "-n", "8", "-d", "NaN"}, "Drone requires d >= 0 and radius > 0"},
		{[]string{"-topo", "drone", "-n", "8", "-churn", "mobility", "-drift", "NaN", "-epochs", "2"}, "DroneMobility Distance(0) = NaN must be >= 0"},
		{[]string{"-topo", "er", "-n", "8", "-p", "NaN"}, "ErdosRenyi requires p in [0,1]"},
		{[]string{"-topo", "er", "-n", "8", "-p", "7"}, "ErdosRenyi requires p in [0,1]"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("run(%v) should fail", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %q, want an error containing %q", c.args, err, c.want)
		}
	}
}

func TestKnownChurnMatchesBuildSchedule(t *testing.T) {
	// Pin the -list catalogue to buildSchedule's switch: every advertised
	// workload must compile a schedule, mirroring TopologyKinds vs Build.
	for _, kind := range knownChurn() {
		topo := cliutil.TopologyFlags{Kind: "harary", N: 10, K: 4, D: 0, Radius: 1.8}
		f := dynFlags{kind: kind, t: 1, seed: 1, epochs: 3, rate: 0.02, drift: 0.5}
		if _, err := buildSchedule(&topo, f, rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("advertised churn workload %q does not build: %v", kind, err)
		}
	}
}

func TestListMode(t *testing.T) {
	// -list short-circuits before any topology or crypto work; it must
	// succeed even combined with otherwise-invalid flags.
	if err := run([]string{"-list"}); err != nil {
		t.Errorf("run(-list): %v", err)
	}
	if err := run([]string{"-list", "-topo", "nosuch"}); err != nil {
		t.Errorf("run(-list -topo nosuch): %v", err)
	}
}

func TestAdaptiveBehaviorsRun(t *testing.T) {
	cases := [][]string{
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "2", "-scheme", "hmac",
			"-byz", "0,5", "-behavior", "adaptive"},
		{"-topo", "harary", "-k", "4", "-n", "10", "-t", "2", "-scheme", "hmac",
			"-byz", "0,5", "-behavior", "phased"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestBehaviorErrorNamesValidBehaviors(t *testing.T) {
	err := run([]string{"-topo", "ring", "-n", "6", "-byz", "1", "-behavior", "sneaky"})
	if err == nil {
		t.Fatal("unknown behavior accepted")
	}
	for _, want := range []string{"sneaky", "crash", "splitbrain", "omitown"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
