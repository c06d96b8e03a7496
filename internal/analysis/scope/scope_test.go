package scope

import "testing"

// TestDeterministicCoverage pins which packages the deterministic-core
// invariants gate. internal/traceview renders golden-pinned reports
// from traces, so it must stay enrolled; the real-world edges must
// stay out.
func TestDeterministicCoverage(t *testing.T) {
	for _, rel := range []string{
		"",
		"internal/rounds",
		"internal/nectar",
		"internal/obs",
		"internal/traceview",
		"internal/dynamic",
		"internal/exp",
	} {
		if !Deterministic(rel) {
			t.Errorf("Deterministic rejects %q, want accepted", rel)
		}
	}
	for _, rel := range []string{
		"cmd/nectar-trace",
		"cmd/nectar-sim",
		"examples/smoke",
		"internal/tcpnet",
		"internal/analysis/mapiter",
	} {
		if Deterministic(rel) {
			t.Errorf("Deterministic accepts %q, want rejected", rel)
		}
	}
}
