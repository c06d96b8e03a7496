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
		"-budget", "66", "-baseline", "4",
		"-trials", "1", "-seed", "7",
	}
	out, err := capture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	// C(12,2) = 66 fits the budget: the search scores every placement.
	for _, want := range []string{"topology", "guarantee", "every placement", "after 66 evals", "random", "gain"} {
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
		"-budget", "8", "-baseline", "4",
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
		"topologies:", "gwheel",
		"schemes:", "ed25519",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestRedTeamCLIErrors: every bad flag is refused by an error that names
// what is wrong, and all but the topology's — which the search's unit
// samples — before the search runs.
func TestRedTeamCLIErrors(t *testing.T) {
	if _, err := capture(t, []string{"-topo", "nosuch"}); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("-topo nosuch: err = %v", err)
	}
	ring := []string{"-topo", "ring", "-n", "8"}
	cases := []struct {
		args []string
		want string
	}{
		{append(ring, "-t", "0"), "T must be positive"},
		{append(ring, "-t", "-1"), "T must be positive"},
		{append(ring, "-t", "2", "-objective", "nosuch"), "objective"},
		{append(ring, "-t", "2", "-attack", "nosuch"), "attack"},
		{append(ring, "-t", "2", "-scheme", "insecure"), "scheme"},
		{append(ring, "-t", "2", "-baseline", "-2"), "BaselineSamples"},
		{append(ring, "-t", "2", "-budget", "-1"), "Budget"},
		{append(ring, "-t", "2", "-trials", "-1"), "Trials"},
		{append(ring, "-t", "2", "-rounds", "5"), "flag provided but not defined: -rounds"},
	}
	for _, tc := range cases {
		_, err := capture(t, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "unit ") {
			t.Errorf("run(%v) = %v, want an up-front error naming %q", tc.args, err, tc.want)
		}
	}
}
