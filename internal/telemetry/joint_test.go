package telemetry_test

import (
	"strconv"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/telemetry"
)

// metricValue extracts one un-labelled sample from Prometheus text
// exposition, or -1 when the series is absent.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	return -1
}

// TestBridgeJointMultilevelParallel drives the bridge through a real
// partition with BOTH the multilevel V-cycle and the parallel
// refinement engine engaged. The two features emit disjoint trace
// kinds (KindLevel from uncoarsening, KindParRound from parfm
// sub-rounds); a combined run must surface both series on the same
// registry — the configuration operators actually deploy. The parallel
// engine refines only states at or above fm's parallel cutoff (see
// fm.Config.RefineWorkers), so the circuit is that large: the first
// carve's finest V-cycle level is all of it.
func TestBridgeJointMultilevelParallel(t *testing.T) {
	g, err := bench.Generate(bench.Params{
		Cells: 2048, PrimaryIn: 16, PrimaryOut: 10, Seed: 5, Clustering: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	bridge := telemetry.NewBridge(reg)
	_, err = kway.Partition(g, kway.Options{
		Library: library.XC3000(), Solutions: 4, Seed: 9,
		Multilevel: true, MultilevelMinCells: 200,
		RefineWorkers: 2,
		Spans:         steppingScope().WithSink(bridge),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if v := metricValue(t, text, telemetry.MetricLevels); v <= 0 {
		t.Errorf("%s = %v, want > 0 (V-cycle never reported a level)", telemetry.MetricLevels, v)
	}
	if v := metricValue(t, text, telemetry.MetricParRounds); v <= 0 {
		t.Errorf("%s = %v, want > 0 (parallel refinement never reported a sub-round)", telemetry.MetricParRounds, v)
	}
	if v := metricValue(t, text, telemetry.MetricFMPasses); v <= 0 {
		t.Errorf("%s = %v, want > 0", telemetry.MetricFMPasses, v)
	}
}
