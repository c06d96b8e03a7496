package report

import (
	"strings"
	"testing"
)

func TestChurnTableQuick(t *testing.T) {
	out, err := runSingle("churn", Options{Quick: true, Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tbl := out.Table
	if len(tbl.Rows) == 0 {
		t.Fatal("empty churn table")
	}
	workloads := map[string]bool{}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(tbl.Columns))
		}
		workloads[row[0]] = true
	}
	for _, want := range []string{"flapping", "node-churn", "partition-heal", "drone-mobility"} {
		if !workloads[want] {
			t.Errorf("workload %q missing from the table", want)
		}
	}
	// The partition-heal row has deterministic flips: both must be
	// detected with zero latency (the cut is epoch-aligned).
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "partition-heal" {
			found = true
			if row[4] != "1.00" {
				t.Errorf("partition-heal flips_detected = %s, want 1.00", row[4])
			}
			if row[5] != "0.00" {
				t.Errorf("partition-heal latency = %s, want 0.00", row[5])
			}
		}
	}
	if !found {
		t.Fatal("no partition-heal row")
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "workload,param,agreement") {
		t.Errorf("CSV header missing: %q", strings.SplitN(csv, "\n", 2)[0])
	}
}
