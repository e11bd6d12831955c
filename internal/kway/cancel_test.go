package kway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/fm"
	"fpgapart/internal/search"
	"fpgapart/internal/trace"
)

// cancelAfterSink cancels a context after n folded solution events.
// Solution events are emitted by the single-threaded index-ordered
// reduction, so the cancellation point is deterministic in fold order
// (though the set of attempts already in flight when it fires is not —
// exactly what the prefix contract has to absorb).
type cancelAfterSink struct {
	rec    trace.Recorder
	n      int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (s *cancelAfterSink) Event(e trace.Event) {
	s.rec.Event(e)
	if e.Kind != trace.KindSolution {
		return
	}
	s.mu.Lock()
	s.seen++
	if s.seen == s.n {
		s.cancel()
	}
	s.mu.Unlock()
}

// TestCancellationDeterminism is the determinism-under-cancellation
// contract: cancel a search after N folded solutions, rerun uncancelled
// with the same seed, and the cancelled run's folded solutions must be
// a prefix of the uncancelled run's — same attempts, same costs, same
// Improved flags — with the returned best equal to the running best of
// that prefix.
func TestCancellationDeterminism(t *testing.T) {
	g := testCircuit(t, 350, 21)
	const solutions, cancelAfter = 8, 3

	var fullRec trace.Recorder
	o := opts(0, solutions)
	o.Spans = sinkScope(&fullRec)
	full, err := Partition(g, o)
	if err != nil {
		t.Fatal(err)
	}
	fullSols := fullRec.Filter(trace.KindSolution)
	if len(fullSols) != solutions {
		t.Fatalf("uncancelled run folded %d solutions, want %d", len(fullSols), solutions)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterSink{n: cancelAfter, cancel: cancel}
	oc := opts(0, solutions)
	oc.Spans = sinkScope(sink)
	part, err := PartitionContext(ctx, g, oc)
	if err != nil {
		// Cancellation before any feasible solution must surface the
		// budget error; with these parameters every attempt is feasible,
		// so reaching here means the fold never started.
		t.Fatalf("cancelled run failed outright: %v", err)
	}
	got := sink.rec.Filter(trace.KindSolution)
	if len(got) < cancelAfter {
		t.Fatalf("folded %d solutions, want >= %d", len(got), cancelAfter)
	}
	// Folded solutions are a prefix of the uncancelled run.
	for i, e := range got {
		if e != fullSols[i] {
			t.Fatalf("solution event %d diverged under cancellation:\n got %+v\nwant %+v", i, e, fullSols[i])
		}
	}
	// The returned best is the running best of the folded prefix: the
	// last Improved event's cost.
	wantCost := -1.0
	for _, e := range got {
		if e.Improved {
			wantCost = e.Cost
		}
	}
	if part.Summary.DeviceCost() != wantCost {
		t.Fatalf("best cost %.1f, want running best %.1f of the %d-solution prefix",
			part.Summary.DeviceCost(), wantCost, len(got))
	}
	// A cancelled-short run must say so; a run that happened to fold
	// everything before observing the cancel is a complete run.
	if len(got) < solutions && part.Stopped != StoppedBudget {
		t.Fatalf("Stopped = %q after folding %d/%d, want %q", part.Stopped, len(got), solutions, StoppedBudget)
	}
	if len(got) == solutions && part.Summary.DeviceCost() != full.Summary.DeviceCost() {
		t.Fatal("fully-folded cancelled run differs from uncancelled run")
	}
}

// TestCancelBeforeStart: a context cancelled up front yields no folded
// attempts and a budget error that wraps the context cause.
func TestCancelBeforeStart(t *testing.T) {
	g := testCircuit(t, 200, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PartitionContext(ctx, g, opts(0, 3))
	if err == nil {
		t.Fatal("pre-cancelled search should fail")
	}
	var budget *search.ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("error %v does not wrap *search.ErrBudget", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestConcurrentCancelRace cancels concurrently with workers mid-carve;
// under -race this exercises the cancellation paths for data races. Any
// outcome is acceptable as long as it is coherent: a verified result or
// a budget/infeasible error.
func TestConcurrentCancelRace(t *testing.T) {
	g := testCircuit(t, 300, 8)
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i) * 2 * time.Millisecond)
		res, err := PartitionContext(ctx, g, opts(fm.NoReplication, 8))
		switch {
		case err == nil:
			if verr := res.Verify(g); verr != nil {
				t.Fatalf("iteration %d: accepted result fails verification: %v", i, verr)
			}
		default:
			var budget *search.ErrBudget
			var inf *InfeasibleError
			if !errors.As(err, &budget) && !errors.As(err, &inf) {
				t.Fatalf("iteration %d: unexpected error type: %v", i, err)
			}
		}
		cancel()
	}
}

// TestMaxStaleStopsEarly: MaxStale truncates the fold deterministically
// and records the reason on the result.
func TestMaxStaleStopsEarly(t *testing.T) {
	g := testCircuit(t, 300, 8)
	o := opts(fm.NoReplication, 12)
	o.MaxStale = 2
	var rec trace.Recorder
	o.Spans = sinkScope(&rec)
	res, err := Partition(g, o)
	if err != nil {
		t.Fatal(err)
	}
	sols := rec.Filter(trace.KindSolution)
	if len(sols) == 12 && res.Stopped != "" {
		t.Fatalf("full fold but Stopped = %q", res.Stopped)
	}
	if len(sols) < 12 {
		if res.Stopped != StoppedStale {
			t.Fatalf("Stopped = %q after %d/12 solutions, want %q", res.Stopped, len(sols), StoppedStale)
		}
		// The stop rule: the last MaxStale accepted solutions did not improve.
		streak := 0
		for _, e := range sols {
			if !e.Feasible {
				continue
			}
			if e.Improved {
				streak = 0
			} else {
				streak++
			}
		}
		if streak < o.MaxStale {
			t.Fatalf("stale streak %d at stop, want >= %d", streak, o.MaxStale)
		}
	}
}

// TestNegativeOptionsRejected: withDefaults surfaces a typed
// *OptionError naming the field for negative knobs instead of feeding
// them to the worker loop or clamping them.
func TestNegativeOptionsRejected(t *testing.T) {
	g := testCircuit(t, 40, 1)
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"Solutions", func(o *Options) { o.Solutions = -1 }},
		{"MaxStale", func(o *Options) { o.MaxStale = -1 }},
		{"RefineWorkers", func(o *Options) { o.RefineWorkers = -3 }},
		{"Threshold", func(o *Options) { th := fm.NoReplication - 1; o.Threshold = &th }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := opts(fm.NoReplication, 2)
			tc.mut(&o)
			_, err := Partition(g, o)
			var oe *OptionError
			if !errors.As(err, &oe) || oe.Field != tc.name {
				t.Fatalf("negative %s: got %v, want an *OptionError for the field", tc.name, err)
			}
		})
	}
}
