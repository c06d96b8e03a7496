package nectar

// Detection-quality metrics (DESIGN.md §13): a dynamic run's result
// renders per-epoch κ-margin and per-flip detection-latency histograms.

import (
	"strings"
	"testing"
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
		Schedule: sched, T: 1, Seed: 3, SchemeName: "hmac",
		EpochRounds: 9, Epochs: 4,
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
