package report

import "testing"

// TestFrontierTableQuick runs the quick sweep end to end and checks the
// structural invariants: every row is an exact search over all
// C(16,2) = 120 placements, so its worst case never falls below the
// random baseline's best, and the bound column marks exactly the
// guaranteed (κ ≥ 2t) misclassify rows, whose searched damage must then
// be 0.
func TestFrontierTableQuick(t *testing.T) {
	out, err := runSingle("redteam", Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tbl := out.Table
	if len(tbl.Rows) != 2*2 {
		t.Fatalf("quick frontier has %d rows", len(tbl.Rows))
	}
	col := map[string]int{}
	for i, c := range tbl.Columns {
		col[c] = i
	}
	for _, row := range tbl.Rows {
		family, objective := row[col["family"]], row[col["objective"]]
		searched, bound := row[col["searched"]], row[col["bound"]]
		if evals := row[col["evals"]]; evals != "120" {
			t.Errorf("%s/%s: %s evals, want all 120 placements", family, objective, evals)
		}
		if bound == "0.00" && searched != "0.000" {
			t.Errorf("%s/%s: guaranteed row has searched damage %s, want 0.000",
				family, objective, searched)
		}
		if row[col["random_best"]] > searched {
			// String compare is safe: fixed-width %.3f formatting.
			t.Errorf("%s/%s: random best %s exceeds searched %s",
				family, objective, row[col["random_best"]], searched)
		}
	}
}
