package kway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// resumeBase is the shared search configuration of the resume suite:
// enough solutions for interesting mid-points, two workers to prove
// the resumed fold is schedule-independent.
func resumeBase(t *testing.T) (kway.Options, *bench.Params) {
	t.Helper()
	p := &bench.Params{Cells: 400, PrimaryIn: 12, PrimaryOut: 8, Seed: 3, Clustering: 0.5}
	return kway.Options{
		Library:   library.XC3000(),
		Solutions: 6,
		Seed:      11,
		Workers:   2,
	}, p
}

// reducerTrace serializes the deterministic reducer-emitted events
// (solutions, checkpoints, resumes) for attempts >= from as JSONL.
// Worker-emitted carve/FM events arrive in completion order and are
// excluded; the reducer stream is the deterministic trace contract a
// resumed run must reproduce.
func reducerTrace(t *testing.T, rec *trace.Recorder, from int) string {
	t.Helper()
	var buf bytes.Buffer
	j := trace.NewJSONL(&buf)
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindSolution, trace.KindCheckpoint:
			if e.Attempt >= from {
				j.Event(e)
			}
		}
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runCheckpointed runs the search with an every-fold checkpoint hook,
// returning the result, every emitted checkpoint and the events. Spans
// are armed on a fresh tracer unless the caller armed its own scope:
// events need armed spans.
func runCheckpointed(t *testing.T, opts kway.Options, p *bench.Params) (kway.Result, []kway.SearchCheckpoint, *trace.Recorder) {
	t.Helper()
	g, err := bench.Generate(*p)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	var cps []kway.SearchCheckpoint
	if !opts.Spans.Enabled() {
		tracer := span.NewTracer(span.Options{Process: "kway-test"})
		opts.Spans = tracer.Root(span.DeriveTraceID("resume", opts.Seed, opts.Solutions), 0)
	}
	opts.Spans = opts.Spans.WithSink(rec)
	opts.Checkpoint = func(cp kway.SearchCheckpoint) { cps = append(cps, cp) }
	res, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, cps, rec
}

// checkSameResult compares everything about two results except the
// Resumed/ResumedFrom markers: the materialized partition bytes, the
// summary and the fold-side statistics.
func checkSameResult(t *testing.T, label string, full, resumed kway.Result) {
	t.Helper()
	if got, want := goldenRender(t, resumed), goldenRender(t, full); got != want {
		t.Fatalf("%s: resumed partition differs from uninterrupted run", label)
	}
	if !reflect.DeepEqual(resumed.Summary, full.Summary) {
		t.Errorf("%s: summary diverged:\nresumed %+v\nfull    %+v", label, resumed.Summary, full.Summary)
	}
	if resumed.Feasible != full.Feasible || resumed.Failed != full.Failed {
		t.Errorf("%s: feasible/failed %d/%d, want %d/%d", label, resumed.Feasible, resumed.Failed, full.Feasible, full.Failed)
	}
	if resumed.CostMin != full.CostMin || resumed.CostMax != full.CostMax || resumed.CostMean != full.CostMean {
		t.Errorf("%s: cost stats (%v,%v,%v) != (%v,%v,%v)", label,
			resumed.CostMin, resumed.CostMax, resumed.CostMean, full.CostMin, full.CostMax, full.CostMean)
	}
	if resumed.Stopped != full.Stopped {
		t.Errorf("%s: Stopped %q, want %q", label, resumed.Stopped, full.Stopped)
	}
}

// TestResumeGolden is the crash-recovery contract of the search layer:
// for each engine config (flat, multilevel V-cycle, parallel
// refinement), a fixed-seed search resumed from any mid-run checkpoint
// must fold to the byte-identical solution, statistics and reducer
// trace tail of the uninterrupted run. The parallel engine refines only
// states above fm's parallel cutoff (see fm.Config.RefineWorkers), so
// the parfm search runs on a larger circuit and must report parallel
// sub-rounds.
func TestResumeGolden(t *testing.T) {
	configs := []struct {
		name string
		set  func(*kway.Options, *bench.Params)
	}{
		{"flat", func(*kway.Options, *bench.Params) {}},
		{"multilevel", func(o *kway.Options, _ *bench.Params) { o.Multilevel = true; o.MultilevelMinCells = 64 }},
		{"parfm", func(o *kway.Options, p *bench.Params) { o.RefineWorkers = 2; p.Cells = 2100 }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			base, p := resumeBase(t)
			cfg.set(&base, p)
			full, cps, fullRec := runCheckpointed(t, base, p)
			if len(cps) != base.Solutions {
				t.Fatalf("expected %d checkpoints, got %d", base.Solutions, len(cps))
			}
			if base.RefineWorkers >= 2 && len(fullRec.Filter(trace.KindParRound)) == 0 {
				t.Fatal("the search ran no parallel sub-round")
			}
			for _, at := range []int{1, len(cps) / 2, len(cps) - 2} {
				cp := cps[at]
				opts := base
				opts.Resume = &cp
				resumed, resumedCps, resumedRec := runCheckpointed(t, opts, p)
				label := cfg.name + "/resume@" + string(rune('0'+cp.Folded))
				checkSameResult(t, label, full, resumed)
				if !resumed.Resumed || resumed.ResumedFrom != cp.Folded {
					t.Errorf("%s: Resumed/ResumedFrom = %v/%d, want true/%d", label, resumed.Resumed, resumed.ResumedFrom, cp.Folded)
				}
				// The resumed run's checkpoints must equal the suffix of
				// the uninterrupted run's — a chained crash/resume sees
				// the same snapshots.
				if want := cps[cp.Folded:]; !reflect.DeepEqual(resumedCps, want) {
					t.Errorf("%s: checkpoint suffix diverged:\nresumed %+v\nfull    %+v", label, resumedCps, want)
				}
				// Byte-identical reducer trace tail (solution and
				// checkpoint events for the re-run attempts).
				if got, want := reducerTrace(t, resumedRec, cp.Folded), reducerTrace(t, fullRec, cp.Folded); got != want {
					t.Errorf("%s: trace tail diverged:\nresumed:\n%s\nfull:\n%s", label, got, want)
				}
			}
		})
	}
}

// TestResumeReplayEmitsNothing: replaying the checkpoint's incumbent
// reconstructs known state, so a resumed search sends no event for any
// folded attempt — only the resume event, which ends the "resume" span.
// The replay's spans still land under that span.
func TestResumeReplayEmitsNothing(t *testing.T) {
	for _, cfg := range []struct {
		name string
		set  func(*kway.Options)
	}{
		{"flat", func(*kway.Options) {}},
		{"multilevel", func(o *kway.Options) { o.Multilevel = true; o.MultilevelMinCells = 64 }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			base, p := resumeBase(t)
			cfg.set(&base)
			_, cps, _ := runCheckpointed(t, base, p)
			cp := cps[len(cps)/2]
			if cp.BestAttempt < 0 {
				t.Fatalf("checkpoint %+v has no incumbent to replay", cp)
			}
			tracer := span.NewTracer(span.Options{Process: "kway-test"})
			tid := span.DeriveTraceID("resume-replay", base.Seed, base.Solutions)
			opts := base
			opts.Resume = &cp
			opts.Spans = tracer.Root(tid, 0)
			_, _, rec := runCheckpointed(t, opts, p)
			resumes := 0
			for _, e := range rec.Events() {
				if e.Kind == trace.KindResume {
					resumes++
					if e.Attempt != cp.Folded || e.Folded != cp.Folded || e.BestAttempt != cp.BestAttempt {
						t.Fatalf("resume event %+v, want attempt/folded %d and best attempt %d", e, cp.Folded, cp.BestAttempt)
					}
					continue
				}
				if e.Attempt >= 0 && e.Attempt < cp.Folded {
					t.Fatalf("event for folded attempt %d: %+v", e.Attempt, e)
				}
			}
			if resumes != 1 {
				t.Fatalf("%d resume events, want 1", resumes)
			}
			spans, _ := tracer.Collector().Trace(tid)
			var resumeID span.ID
			for _, s := range spans {
				if s.Name == "resume" {
					resumeID = s.ID
				}
			}
			passes := 0
			for _, s := range tracer.Collector().Subtree(tid, resumeID) {
				if s.Name == "fm-pass" {
					passes++
				}
			}
			if resumeID == 0 || passes == 0 {
				t.Fatalf("resume span %v has %d fm-pass descendants, want some", resumeID, passes)
			}
		})
	}
}

// TestResumeFromFinalCheckpoint resumes from the checkpoint covering
// every attempt: no new attempt runs, the incumbent is replayed and
// the result still matches the uninterrupted run.
func TestResumeFromFinalCheckpoint(t *testing.T) {
	base, p := resumeBase(t)
	full, cps, _ := runCheckpointed(t, base, p)
	cp := cps[len(cps)-1]
	if cp.Folded != base.Solutions {
		t.Fatalf("final checkpoint folded %d, want %d", cp.Folded, base.Solutions)
	}
	opts := base
	opts.Resume = &cp
	resumed, _, _ := runCheckpointed(t, opts, p)
	checkSameResult(t, "final", full, resumed)
}

// TestResumeValidation rejects checkpoints that do not belong to the
// configured search.
func TestResumeValidation(t *testing.T) {
	base, p := resumeBase(t)
	g, err := bench.Generate(*p)
	if err != nil {
		t.Fatal(err)
	}
	_, cps, _ := runCheckpointed(t, base, p)
	cases := []struct {
		name string
		mut  func(*kway.SearchCheckpoint)
	}{
		{"seed-mismatch", func(cp *kway.SearchCheckpoint) { cp.Seed++ }},
		{"solutions-mismatch", func(cp *kway.SearchCheckpoint) { cp.Solutions++ }},
		{"folded-overflow", func(cp *kway.SearchCheckpoint) { cp.Folded = 99 }},
		{"best-outside-prefix", func(cp *kway.SearchCheckpoint) { cp.BestAttempt = cp.Folded }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := cps[2]
			tc.mut(&cp)
			opts := base
			opts.Resume = &cp
			if _, err := kway.Partition(g, opts); err == nil {
				t.Fatal("expected a resume validation error")
			}
		})
	}
}

// TestSearchCheckpointJSONRoundTrip pins the serialization the job
// store relies on: a checkpoint survives encode→decode bit-exactly
// (float64 fields included) and still resumes byte-identically.
func TestSearchCheckpointJSONRoundTrip(t *testing.T) {
	base, p := resumeBase(t)
	full, cps, _ := runCheckpointed(t, base, p)
	cp := cps[len(cps)/2]
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back kway.SearchCheckpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, back) {
		t.Fatalf("checkpoint did not round-trip:\nbefore %+v\nafter  %+v", cp, back)
	}
	opts := base
	opts.Resume = &back
	resumed, _, _ := runCheckpointed(t, opts, p)
	checkSameResult(t, "json-round-trip", full, resumed)
}

// TestResumeAfterStaleStop: a run stopped by MaxStale resumes from any
// of its checkpoints, the stop's own included, to the same result,
// fold statistics and reducer trace tail. The checkpoint taken at the
// stop records a finished search; resuming from it replays the
// incumbent and dispatches nothing.
func TestResumeAfterStaleStop(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		base, p := resumeBase(t)
		base.Solutions, base.MaxStale, base.Seed = 30, 2, seed
		full, cps, fullRec := runCheckpointed(t, base, p)
		if full.Stopped != kway.StoppedStale {
			t.Fatalf("seed %d: Stopped = %q after %d folds, want a stale stop", seed, full.Stopped, len(cps))
		}
		for _, cp := range cps {
			opts := base
			opts.Resume = &cp
			resumed, resumedCps, resumedRec := runCheckpointed(t, opts, p)
			label := fmt.Sprintf("seed %d/resume@%d", seed, cp.Folded)
			checkSameResult(t, label, full, resumed)
			fs := resumed.FoldStats
			fs.Resumed, fs.ResumedFrom = false, 0
			if !reflect.DeepEqual(fs, full.FoldStats) {
				t.Errorf("%s: fold stats %+v, want %+v", label, fs, full.FoldStats)
			}
			if want := cps[cp.Folded:]; len(resumedCps) != len(want) || (len(want) > 0 && !reflect.DeepEqual(resumedCps, want)) {
				t.Errorf("%s: checkpoint suffix diverged:\nresumed %+v\nfull    %+v", label, resumedCps, want)
			}
			if got, want := reducerTrace(t, resumedRec, cp.Folded), reducerTrace(t, fullRec, cp.Folded); got != want {
				t.Errorf("%s: trace tail diverged:\nresumed:\n%s\nfull:\n%s", label, got, want)
			}
		}
	}
}
