package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunReports(t *testing.T) {
	cases := [][]string{
		{"-topo", "ring", "-n", "8"},
		{"-topo", "gwheel", "-c", "3", "-n", "15", "-t", "5"},
		{"-topo", "kdiamond", "-k", "4", "-n", "20"},
		{"-topo", "complete", "-n", "5"}, // no min cut branch
		{"-topo", "drone", "-n", "10", "-d", "6", "-radius", "1.2"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunOutputs(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "ring", "-n", "5", "-format", "dot"},
		{"-topo", "ring", "-n", "5", "-format", "json"},
		{"-topo", "ring", "-n", "5", "-format", "text"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestDOTGolden pins the Graphviz export byte-for-byte: a stable DOT
// rendering is what downstream visualization scripts parse.
func TestDOTGolden(t *testing.T) {
	const golden = `graph "ring" {
  0;
  1;
  2;
  3;
  4;
  0 -- 1;
  0 -- 4;
  1 -- 2;
  2 -- 3;
  3 -- 4;
}
`
	var buf bytes.Buffer
	if err := run([]string{"-topo", "ring", "-n", "5", "-format", "dot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Errorf("DOT output drifted:\n got:\n%s\nwant:\n%s", buf.String(), golden)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-topo", "nosuch"},
		{"-topo", "mwheel", "-c", "2", "-parts", "5", "-n", "10"},
		{"-topo", "ring", "-n", "5", "-format", "yaml"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestFormatErrorNamesValidFormats(t *testing.T) {
	err := run([]string{"-topo", "ring", "-n", "5", "-format", "yaml"}, io.Discard)
	if err == nil {
		t.Fatal("bad format accepted")
	}
	if !strings.Contains(err.Error(), "dot") || !strings.Contains(err.Error(), "json") {
		t.Errorf("error %q does not name the valid formats", err)
	}
}
