package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs main.run with stdout redirected to a pipe-backed file and
// returns the printed output.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(filepath.Join(f.Name()))
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRedTeamCLIText(t *testing.T) {
	args := []string{
		"-topo", "harary", "-k", "3", "-n", "12", "-t", "2",
		"-attack", "omitown", "-objective", "misclassify",
		"-optimizer", "greedy", "-budget", "10", "-baseline", "4",
		"-trials", "1", "-seed", "7",
	}
	out, err := capture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"topology", "guarantee", "searched", "random", "gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRedTeamCLIReproducesBitForBit pins the acceptance criterion: two
// runs from the same flags print identical bytes.
func TestRedTeamCLIReproducesBitForBit(t *testing.T) {
	args := []string{
		"-topo", "drone", "-n", "12", "-d", "1.5", "-radius", "1.6", "-t", "2",
		"-attack", "splitbrain", "-objective", "disagree",
		"-optimizer", "anneal", "-budget", "8", "-baseline", "4",
		"-trials", "2", "-seed", "42", "-v", "-json",
	}
	a, err := capture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	b, err := capture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical flags produced different output:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestRedTeamCLIList(t *testing.T) {
	out, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"attacks:", "adaptive", "phased",
		"objectives:", "misclassify", "disagree", "traffic",
		"optimizers:", "anneal", "greedy",
		"topologies:", "gwheel",
		"schemes:", "ed25519",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestRedTeamCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-topo", "nosuch"},
		{"-topo", "ring", "-n", "8", "-t", "0"},
		{"-topo", "ring", "-n", "8", "-t", "2", "-objective", "nosuch"},
		{"-topo", "ring", "-n", "8", "-t", "2", "-optimizer", "nosuch"},
		{"-topo", "ring", "-n", "8", "-t", "2", "-attack", "nosuch"},
		{"-topo", "ring", "-n", "8", "-t", "2", "-scheme", "insecure"},
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
