package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/span"
)

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span.Span{
		// A search whose two attempts overlap: [1,5] ∪ [3,8] covers 7 of
		// its 10 ms, where the plain sum of their durations is 9.
		{ID: 1, Name: "search", Process: "a", Start: at(0), Dur: ms(10)},
		{ID: 2, Parent: 1, Name: "attempt", Process: "a", Start: at(1), Dur: ms(4)},
		{ID: 3, Parent: 1, Name: "attempt", Process: "a", Start: at(3), Dur: ms(5)},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 3, Name: "fm-pass", Process: "a", Start: at(4), Dur: ms(2)},
		// An rpc whose worker-side job, on another process's clock, runs
		// past the rpc's end: only the overlap [22,25] counts.
		{ID: 5, Name: "rpc", Process: "coord", Start: at(20), Dur: ms(5)},
		{ID: 6, Parent: 5, Name: "job", Process: "worker", Start: at(22), Dur: ms(6)},
	}
	want := []time.Duration{ms(3), ms(4), ms(3), ms(2), ms(2), ms(6)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerReportsDroppedSpans(t *testing.T) {
	tr := &tracer{t: span.NewTracer(span.Options{MaxSpansPerTrace: 2})}
	root := tr.scope(true, "op", 0)
	for i := 0; i < 3; i++ {
		root.Scope().Start("fm-pass", 0).End()
	}
	root.End()
	if err := tr.fold(root, newSpanAgg(), "kbench"); err == nil || !strings.Contains(err.Error(), "dropped 2 spans") {
		t.Fatalf("fold over a trace with dropped spans: err = %v, want a dropped-spans error", err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives [1.5, 3.0, 4.5] and
	// [1.75, 4.5, 9.25] for these samples.
	for _, tc := range []struct {
		xs            []float64
		p25, med, p75 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 4, 5, 9, 10}, 1.75, 4.5, 9.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize("x", "ms", tc.xs)
		if s.P25 != tc.p25 || s.Median != tc.med || s.P75 != tc.p75 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want p25 %v median %v p75 %v", tc.xs, s, tc.p25, tc.med, tc.p75)
		}
	}
	if got := nearestRank([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("p99 of three samples = %v, want the maximum", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.1}
	steady := stat{Median: 100, P25: 99, P75: 101}
	for _, tc := range []struct {
		base, cur stat
		want      string
	}{
		{steady, stat{Median: 105, P25: 104, P75: 106}, verdictSame},
		{steady, stat{Median: 115, P25: 114, P75: 116}, verdictWorse},
		{steady, stat{Median: 80, P25: 79, P75: 81}, verdictBetter},
		// The base run's spread (30%) is wider than the bound.
		{stat{Median: 100, P25: 85, P75: 115}, stat{Median: 112, P25: 100, P75: 125}, verdictUnresolved},
		// ... unless the quartile ranges do not overlap.
		{stat{Median: 100, P25: 85, P75: 115}, stat{Median: 130, P25: 120, P75: 140}, verdictWorse},
	} {
		if got := verdict(lower, tc.base, tc.cur); got != tc.want {
			t.Errorf("verdict(%+v -> %+v) = %s, want %s", tc.base, tc.cur, got, tc.want)
		}
	}
	if got := verdict(bound{Better: "higher", Bound: 0.1}, steady, stat{Median: 85, P25: 84, P75: 86}); got != verdictWorse {
		t.Errorf("a 15%% drop of a higher-is-better metric: %s, want worse", got)
	}
}

// TestQuickRunsReportEveryMetric runs every workload at -quick scale,
// untraced and traced, and checks the result line against
// BENCHMARK.json: every metric present with its unit, no failed op,
// and (since a dropped span fails a traced run) no span dropped.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	spec, err := readSpec("../../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, kbench runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]bound{spec.EndToEnd, spec.PerLayer} {
			var out, errb bytes.Buffer
			args := []string{"-workload", w, "-seed", "3", "-quick", "-trace", []string{"0", "1"}[trace]}
			if code := run(args, &out, &errb); code != 0 {
				t.Errorf("kbench %v: exit %d\n%s", args, code, errb.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("kbench %v: last line is not the result object: %v", args, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("kbench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("kbench %v: %d metrics, BENCHMARK.json lists %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("kbench %v: metric %s missing", args, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("kbench %v: metric %s in %s, BENCHMARK.json says %s", args, m.Name, got.Unit, m.Unit)
				case trace == 0 && *got.Value <= 0:
					t.Errorf("kbench %v: end-to-end metric %s = %v, want > 0", args, m.Name, *got.Value)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("kbench %v: table does not print %s", args, m.Name)
				}
			}
		}
	}
}
