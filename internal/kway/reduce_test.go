package kway

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/metrics"
	"fpgapart/internal/search"
	"fpgapart/internal/trace"
)

// synth is a synthetic solution: attempt i of a synthReducer yields
// costs[i], or fails when the entry is negative.
type synth struct {
	attempt int
	cost    float64
}

func synthReducer(costs []float64) Reducer[synth] {
	return Reducer[synth]{
		NewAttempt: func() search.AttemptFunc[synth] {
			return func(_ context.Context, i int, _ int64) (synth, error) {
				if costs[i] < 0 {
					return synth{}, fmt.Errorf("attempt %d infeasible", i)
				}
				return synth{attempt: i, cost: costs[i]}, nil
			}
		},
		Score: func(s synth) metrics.Score { return metrics.Score{Cost: s.cost, K: 1} },
	}
}

// reduceSynth runs Reduce over costs with every-fold checkpoints and a
// recording sink, returning the outcome, the checkpoints and the events.
func reduceSynth(t *testing.T, o Options, r Reducer[synth]) (best synth, fs FoldStats, cps []SearchCheckpoint, rec *trace.Recorder, err error) {
	t.Helper()
	rec = &trace.Recorder{}
	o.Spans = sinkScope(rec)
	o.Checkpoint = func(cp SearchCheckpoint) { cps = append(cps, cp) }
	best, fs, err = Reduce(context.Background(), o, r)
	return best, fs, cps, rec, err
}

// TestReduceStaleStopDeterministic: the best improves at attempts 0 and
// 4 and attempts 1..3 are stale, so MaxStale = 3 stops the fold right
// after attempt 3 on any worker count: the improving attempt 4 is
// never folded.
func TestReduceStaleStopDeterministic(t *testing.T) {
	costs := []float64{5, 6, 6, 6, 1, 1, 1, 1}
	for _, workers := range []int{1, 4} {
		best, fs, cps, rec, err := reduceSynth(t, Options{Solutions: len(costs), Workers: workers, MaxStale: 3}, synthReducer(costs))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if best.attempt != 0 || fs.Feasible != 4 || fs.Stopped != StoppedStale {
			t.Fatalf("workers=%d: best attempt %d, %d feasible, Stopped %q; want attempt 0, 4, stale", workers, best.attempt, fs.Feasible, fs.Stopped)
		}
		if n := len(rec.Filter(trace.KindSolution)); n != 4 || len(cps) != 4 || cps[3].Stale != 3 {
			t.Fatalf("workers=%d: %d solution events, checkpoints %+v; want 4 and a final stale count of 3", workers, n, cps)
		}
	}
}

// TestReduceFailedAttemptsDoNotCountStale: failed attempts neither
// improve nor go stale, so the run of failures before the one stale
// solution (attempt 5) cannot trip MaxStale = 2.
func TestReduceFailedAttemptsDoNotCountStale(t *testing.T) {
	costs := []float64{5, -1, -1, -1, -1, 6, 4}
	best, fs, _, _, err := reduceSynth(t, Options{Solutions: len(costs), Workers: 2, MaxStale: 2}, synthReducer(costs))
	if err != nil {
		t.Fatal(err)
	}
	if best.cost != 4 || fs.Stopped != "" || fs.Failed != 4 || fs.Feasible != 3 {
		t.Fatalf("best %v, %d failed / %d feasible, Stopped %q; failures must not trip the stale stop", best.cost, fs.Failed, fs.Feasible, fs.Stopped)
	}
}

// TestReduceFatalAbortsAtFirstFoldedIndex: a fatal error at attempt 3
// aborts the search there on any worker count, surfaced as itself, and
// attempt 3 gets neither a solution nor a checkpoint event.
func TestReduceFatalAbortsAtFirstFoldedIndex(t *testing.T) {
	fatalErr := errors.New("invariant violated")
	costs := []float64{4, 3, 2, 1, 1, 1, 1, 1, 1, 1}
	r := synthReducer(costs)
	inner := r.NewAttempt
	r.NewAttempt = func() search.AttemptFunc[synth] {
		run := inner()
		return func(ctx context.Context, i int, seed int64) (synth, error) {
			if i == 3 {
				return synth{}, fatalErr
			}
			return run(ctx, i, seed)
		}
	}
	r.Fatal = func(err error) bool { return errors.Is(err, fatalErr) }
	for _, workers := range []int{1, 4} {
		_, _, cps, rec, err := reduceSynth(t, Options{Solutions: len(costs), Workers: workers}, r)
		if err != fatalErr {
			t.Fatalf("workers=%d: err %v, want the fatal error itself", workers, err)
		}
		if len(cps) != 3 || cps[2].Folded != 3 {
			t.Fatalf("workers=%d: checkpoints %+v, want folds 1..3 only", workers, cps)
		}
		for _, e := range rec.Events() {
			if (e.Kind == trace.KindSolution || e.Kind == trace.KindCheckpoint) && e.Attempt >= 3 {
				t.Fatalf("workers=%d: event %+v for attempt %d at or past the fatal one", workers, e, e.Attempt)
			}
		}
	}
}

// TestReduceEqualScoreKeepsEarlierAttempt: on equal scores the earlier
// attempt stays best, and only the first solution counts as improving.
func TestReduceEqualScoreKeepsEarlierAttempt(t *testing.T) {
	costs := []float64{-1, 7, 7, 7, 7}
	best, _, cps, rec, err := reduceSynth(t, Options{Solutions: len(costs), Workers: 3}, synthReducer(costs))
	if err != nil {
		t.Fatal(err)
	}
	if best.attempt != 1 || cps[len(cps)-1].BestAttempt != 1 || cps[len(cps)-1].Improved != 1 {
		t.Fatalf("best attempt %d, final checkpoint %+v; want attempt 1 improving once", best.attempt, cps[len(cps)-1])
	}
	for _, e := range rec.Filter(trace.KindSolution) {
		if e.Improved != (e.Attempt == 1) {
			t.Fatalf("solution event %+v: only attempt 1 improves", e)
		}
	}
}

// TestReduceDegradedFoldMatchesHealthyFold: a panic injected into
// attempt 3 degrades the fold: every surviving attempt emits the same
// solution event as in the healthy run, the best is the best of the
// survivors and the panicked seed is reported.
func TestReduceDegradedFoldMatchesHealthyFold(t *testing.T) {
	costs := []float64{9, 8, 6, 3, 7, 5}
	o := Options{Solutions: len(costs), Workers: 3, Seed: 40}
	_, healthyFS, _, healthyRec, err := reduceSynth(t, o, synthReducer(costs))
	if err != nil {
		t.Fatal(err)
	}
	o.Inject = faultinject.NewPlan(faultinject.PanicAtAttempt(3))
	best, fs, _, rec, err := reduceSynth(t, o, synthReducer(costs))
	if err != nil {
		t.Fatal(err)
	}
	healthy, degraded := healthyRec.Filter(trace.KindSolution), rec.Filter(trace.KindSolution)
	if len(healthy) != len(costs) || len(degraded) != len(costs) {
		t.Fatalf("%d / %d solution events, want %d each", len(healthy), len(degraded), len(costs))
	}
	for i := range healthy {
		if i == 3 {
			if degraded[i].Feasible || !degraded[i].Panic {
				t.Fatalf("panicked attempt event %+v", degraded[i])
			}
			continue
		}
		if i < 3 && !reflect.DeepEqual(degraded[i], healthy[i]) || i > 3 && degraded[i].Cost != healthy[i].Cost {
			t.Fatalf("surviving attempt %d diverged: %+v vs %+v", i, degraded[i], healthy[i])
		}
	}
	if best.cost != 5 || healthyFS.Degraded || !fs.Degraded || fs.Panicked != 1 || fs.Failed != 1 ||
		!reflect.DeepEqual(fs.PanickedSeeds, []int64{40 + 3*SeedStride}) {
		t.Fatalf("degraded best %v, fold stats %+v; want best 5 and one panicked seed", best.cost, fs)
	}
}
