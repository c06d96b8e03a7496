package nectar

// Detection-quality metrics (DESIGN.md §13): a dynamic run's result
// renders per-epoch κ-margin and per-flip detection-latency histograms.

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/harness"
)

func TestDynamicDetectionMetrics(t *testing.T) {
	hg, err := Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := PartitionHealSchedule(hg, 10, 28)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateDynamic(DynamicConfig{
		Schedule: sched, T: 1, Seed: 3, SchemeName: "hmac", Epochs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	res.PublishMetrics(reg, 1)

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// The partition/heal schedule flips ground truth twice inside the
	// horizon, so both the margin histogram (with epochs on both sides
	// of zero) and the latency accounting must be populated.
	for _, want := range []string{
		"nectar_dynamic_epochs_total 4",
		"nectar_dynamic_kappa_margin_count 4",
		"nectar_dynamic_kappa_margin_bucket{le=\"-1\"}",
		"nectar_dynamic_detection_latency_epochs_count 2",
		"nectar_dynamic_flips_detected_total 2",
		"nectar_dynamic_flips_undetected_total 0",
		"nectar_dynamic_epochs_agreed_total 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestFlappingAgreementReadsAlike reads one flapping schedule's agreement
// three ways — SimulateDynamic's epochs, the PublishMetrics counter and a
// one-trial harness.RunDynamic — and requires one count: agreement is
// every correct node deciding the same value, whatever else they output.
// The harness seeds trial 0's epochs with Seed ^ 0x5F5F5F5F, so both
// runs see the same epoch seeds.
func TestFlappingAgreementReadsAlike(t *testing.T) {
	const seed, epochs = 8, 6
	g, err := Harary(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := FlappingSchedule(g, 0.1, 0.3, 54, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateDynamic(DynamicConfig{
		Schedule: sched, T: 2, Seed: seed ^ 0x5F5F5F5F, SchemeName: "slim", Epochs: epochs,
	})
	if err != nil {
		t.Fatal(err)
	}
	simulated := 0
	for _, ep := range res.Epochs {
		if ep.Agreement {
			simulated++
		}
	}
	reg := NewMetricsRegistry()
	res.PublishMetrics(reg, 2)
	published := reg.Counter("nectar_dynamic_epochs_agreed_total", "").Value()

	hr, err := harness.RunDynamic(harness.DynamicSpec{
		Name:     "flapping",
		Schedule: func(*rand.Rand) (*EdgeSchedule, error) { return sched, nil },
		T:        2, Trials: 1, Seed: seed, SchemeName: "slim", Epochs: epochs,
	})
	if err != nil {
		t.Fatal(err)
	}
	harnessed := hr.Trials[0].AgreementRate * epochs

	if int64(simulated) != published || float64(simulated) != harnessed {
		t.Errorf("agreeing epochs of %d: SimulateDynamic %d, PublishMetrics %d, RunDynamic %g",
			epochs, simulated, published, harnessed)
	}
}
