package wallclock_test

import (
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/analysis/nvet/nvettest"
	"github.com/nectar-repro/nectar/internal/analysis/wallclock"
)

// TestFixture proves the analyzer fires on clock reads, ignores pure
// time arithmetic, suppresses only justified directives, and reports
// bare ones — so both the analyzer and the suppression machinery break
// loudly. The fixture's leaseLoop is a timer-heavy idiom (a lease
// ticker + deadline reads under justified directives): it must stay
// clean with justifications and must still fire without them.
func TestFixture(t *testing.T) {
	diags := nvettest.Run(t, wallclock.Analyzer, "testdata")
	if len(diags) == 0 {
		t.Fatal("analyzer reported nothing on a fixture with known violations")
	}
	ticker := false
	for _, d := range diags {
		if strings.Contains(d.Message, "time.NewTicker") {
			ticker = true
		}
	}
	if !ticker {
		t.Error("no diagnostic for the unjustified lease ticker — a ticker in deterministic scope would go ungated")
	}
}
