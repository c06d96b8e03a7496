package cliutil

import (
	"flag"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func buildKind(t *testing.T, args ...string) (*TopologyFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var tf TopologyFlags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, err := tf.Build(rand.New(rand.NewSource(1)))
	return &tf, err
}

func TestBuildAllKinds(t *testing.T) {
	cases := [][]string{
		{"-topo", "ring", "-n", "6"},
		{"-topo", "line", "-n", "6"},
		{"-topo", "star", "-n", "6"},
		{"-topo", "complete", "-n", "6"},
		{"-topo", "er", "-n", "8", "-p", "0.5"},
		{"-topo", "harary", "-k", "3", "-n", "8"},
		{"-topo", "randomregular", "-k", "2", "-n", "8"},
		{"-topo", "kdiamond", "-k", "4", "-n", "12"},
		{"-topo", "kpasted", "-k", "4", "-n", "12"},
		{"-topo", "gwheel", "-c", "2", "-n", "10"},
		{"-topo", "mwheel", "-c", "2", "-parts", "2", "-n", "10"},
		{"-topo", "drone", "-n", "10", "-d", "1", "-radius", "1.5"},
		{"-topo", "tree", "-k", "3", "-n", "13"},
		{"-topo", "cliquetree", "-n", "12", "-c", "4", "-b", "2", "-k", "2"},
	}
	for _, args := range cases {
		if _, err := buildKind(t, args...); err != nil {
			t.Errorf("Build(%v): %v", args, err)
		}
	}
}

// TestTopologyKindsMatchesBuild pins the -list catalogue to the Build
// switch: every advertised kind must build with workable defaults, so a
// kind added to one place but not the other fails here.
func TestTopologyKindsMatchesBuild(t *testing.T) {
	// cliquetree's constraint k*b ≤ c conflicts with the hub-sized C the
	// other kinds want, so it carries its own workable parameters.
	overrides := map[string]TopologyFlags{
		"cliquetree": {N: 12, K: 2, C: 4, B: 2},
	}
	for _, kind := range TopologyKinds() {
		tf, ok := overrides[kind]
		if !ok {
			tf = TopologyFlags{N: 12, K: 4, C: 2, B: 1, Parts: 2, P: 0.5, D: 1, Radius: 1.5}
		}
		tf.Kind = kind
		if _, err := tf.Build(rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("advertised kind %q does not build: %v", kind, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := buildKind(t, "-topo", "nosuch"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := buildKind(t, "-topo", "harary", "-k", "9", "-n", "4"); err == nil {
		t.Error("invalid harary params accepted")
	}
	if _, err := buildKind(t, "-topo", "cliquetree", "-n", "13", "-c", "4", "-b", "2", "-k", "2"); err == nil {
		t.Error("cliquetree with n not a multiple of c accepted")
	}
	// A negative -n is refused by name for every kind (the ring, line, star,
	// complete and er generators would panic on it).
	for _, kind := range TopologyKinds() {
		if _, err := buildKind(t, "-topo", kind, "-n", "-3"); err == nil || !strings.Contains(err.Error(), "-n") {
			t.Errorf("-topo %s -n -3: err = %v, want an error naming -n", kind, err)
		}
	}
}

func TestParseNodeList(t *testing.T) {
	got, err := ParseNodeList(" 1, 4,7 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []ids.NodeID{1, 4, 7}) {
		t.Errorf("got %v", got)
	}
	if got, err := ParseNodeList(""); err != nil || got != nil {
		t.Errorf("empty list: %v, %v", got, err)
	}
	if _, err := ParseNodeList("1,x"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseNodeList("-3"); err == nil {
		t.Error("negative accepted")
	}
	if _, err := ParseNodeList("2, 5,2"); err == nil || !strings.Contains(err.Error(), "2") {
		t.Errorf("repeated id: %v, want an error naming 2", err)
	}
}
