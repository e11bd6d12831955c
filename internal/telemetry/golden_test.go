package telemetry_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/trace"
)

// renderResult flattens a k-way result to a canonical byte string:
// every part's device plus its full materialized subcircuit text. Two
// runs that agree on this string produced byte-identical partitions.
func renderResult(t *testing.T, res kway.Result) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range res.Parts {
		sb.WriteString(p.Device.Name)
		sb.WriteByte('\n')
		if err := hypergraph.Write(&sb, p.Graph); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// steppingScope returns an armed span scope on a clock that advances
// one millisecond per reading, so phase durations are non-zero and
// strictly ordered without touching the real wall clock.
func steppingScope() span.Scope {
	var mu sync.Mutex
	t0 := time.Unix(1_700_000_000, 0)
	step := 0
	tracer := span.NewTracer(span.Options{Process: "telemetry-test", Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		step++
		return t0.Add(time.Duration(step) * time.Millisecond)
	}})
	return tracer.Root(span.DeriveTraceID("telemetry", 11, 6), 0)
}

// The golden diff of the telemetry PR: a fixed-seed k-way search must
// produce byte-identical partitions whether telemetry is disabled
// (nil sink, no spans, no clock reads) or fully armed (bridge metrics,
// recorder, spans on a fake clock). Clock readings and metric
// observations feed sinks only.
func TestTelemetryDoesNotPerturbSearch(t *testing.T) {
	// 400 cells overflow the largest library device: the search must
	// carve recursively and run FM, so the byte-identical comparison
	// covers the instrumented hot paths, not just the single-device
	// fast path.
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 12, PrimaryOut: 8, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	opts := kway.Options{Library: library.XC3000(), Solutions: 6, Seed: 11, Verify: true}

	plain, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var rec trace.Recorder
	traced := opts
	traced.Spans = steppingScope().WithSink(trace.Multi(telemetry.NewBridge(reg), &rec))
	got, err := kway.Partition(g, traced)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := renderResult(t, plain), renderResult(t, got); a != b {
		t.Fatalf("telemetry perturbed the search:\n--- plain ---\n%s\n--- traced ---\n%s", a, b)
	}
	if plain.Summary.DeviceCost() != got.Summary.DeviceCost() ||
		plain.Feasible != got.Feasible || plain.Failed != got.Failed ||
		plain.CostMin != got.CostMin || plain.CostMax != got.CostMax || plain.CostMean != got.CostMean {
		t.Fatalf("search statistics diverged: %+v vs %+v", plain, got)
	}
}

// Phase events must cover the search itself plus per-attempt fold and
// verify stages, with durations read from the spans' clock.
func TestPhaseEventsEmitted(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 12, PrimaryOut: 8, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	bridge := telemetry.NewBridge(reg)
	var rec trace.Recorder
	res, err := kway.Partition(g, kway.Options{
		Library: library.XC3000(), Solutions: 4, Seed: 11, Verify: true,
		Spans: steppingScope().WithSink(trace.Multi(bridge, &rec)),
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := rec.Filter(trace.KindPhase)
	counts := map[string]int{}
	for _, e := range phases {
		counts[e.Phase]++
		if e.Dur <= 0 {
			t.Fatalf("phase %q has non-positive duration %v", e.Phase, e.Dur)
		}
	}
	if counts[trace.PhaseSearch] != 1 {
		t.Fatalf("want exactly one search phase, got %d (%v)", counts[trace.PhaseSearch], counts)
	}
	if counts[trace.PhaseFold] < res.Feasible || counts[trace.PhaseVerify] < res.Feasible {
		t.Fatalf("fold/verify phases missing: %v with %d feasible", counts, res.Feasible)
	}
	// The bridge turned the same events into histogram observations.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, phase := range []string{"search", "fold", "verify"} {
		if !strings.Contains(out, `fpgapart_phase_seconds_count{phase="`+phase+`"}`) {
			t.Fatalf("missing %s phase histogram in exposition:\n%s", phase, out)
		}
	}
	if strings.Contains(out, "fpgapart_carve_accepted_total 0\n") {
		t.Fatalf("carve counter still zero after a multi-device search:\n%s", out)
	}
	if !strings.Contains(out, "fpgapart_carve_accepted_total") {
		t.Fatalf("missing carve counters in exposition:\n%s", out)
	}
}
