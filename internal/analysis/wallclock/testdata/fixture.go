// Fixture for the wallclock analyzer: clock reads and timers fire,
// pure time arithmetic does not, and the suppression directive works
// only with a justification.
package fixture

import "time"

func clocks() {
	_ = time.Now()               // want `time.Now`
	_ = time.Since(time.Time{})  // want `time.Since`
	_ = time.Until(time.Time{})  // want `time.Until`
	time.Sleep(time.Millisecond) // want `time.Sleep`
	_ = time.NewTimer(1)         // want `time.NewTimer`
	_ = time.After(1)            // want `time.After`

	_ = time.Unix(0, 0) // pure construction: fine
	_ = 3 * time.Second // pure arithmetic: fine
	_ = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
}

func suppressed() {
	//nectar:allow-wallclock fixture: justification on the line above suppresses
	_ = time.Now()
	_ = time.Now() //nectar:allow-wallclock fixture: trailing justification suppresses
}

func bareDirective() {
	// A directive without a justification does not suppress — the
	// diagnostic is reported, annotated with what is missing.
	//nectar:allow-wallclock
	_ = time.Now() // want `without a justification`
}

// leaseLoop is a lease loop inside deterministic scope: its ticker and
// deadline read are transport policy (they never shape results), so
// each wall-clock touch carries its justification in place. This pins
// that the timer-heavy idiom keeps passing the gate with directives —
// and keeps firing without them (below).
func leaseLoop(stop chan struct{}) {
	tick := time.NewTicker(time.Second) //nectar:allow-wallclock fixture: lease expiry is transport policy, not part of any result
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			//nectar:allow-wallclock fixture: deadline check against the dispatch clock
			if !time.Now().IsZero() {
				return
			}
		}
	}
}

func unjustifiedLease() {
	tick := time.NewTicker(time.Second) // want `time.NewTicker`
	tick.Stop()
}
