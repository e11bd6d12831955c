package search

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fpgapart/internal/faultinject"
)

// seedAttempts yields each attempt's seed as its solution, so every
// fold is easy to predict.
func seedAttempts() AttemptFunc[int64] {
	return func(ctx context.Context, attempt int, seed int64) (int64, error) {
		return seed, nil
	}
}

// folded is one fold call as a test observes it.
type folded struct {
	attempt int
	sol     int64
	err     error
}

// collect returns a fold that never stops and appends every call to
// *seen.
func collect(seen *[]folded) FoldFunc[int64] {
	return func(attempt int, sol int64, err error) bool {
		*seen = append(*seen, folded{attempt, sol, err})
		return false
	}
}

// TestPanicContainmentInjected: a panic injected into one attempt
// folds as a failed attempt carrying a *PanicError; every other
// attempt still folds, deterministically, and the process survives.
func TestPanicContainmentInjected(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.PanicAtAttempt(2))
	var seen []folded
	n, err := Run(context.Background(), Options{Attempts: 5, Seed: 100, SeedStride: 3, Inject: plan}, seedAttempts, collect(&seen))
	if err != nil || n != 5 || len(seen) != 5 {
		t.Fatalf("degraded run: n=%d err=%v folds=%d, want 5 folds and no error", n, err, len(seen))
	}
	for _, f := range seen {
		if f.attempt != 2 {
			if f.err != nil || f.sol != 100+int64(f.attempt)*3 {
				t.Fatalf("surviving attempt %+v, want its seed and no error", f)
			}
			continue
		}
		var perr *PanicError
		if !errors.As(f.err, &perr) {
			t.Fatalf("attempt 2 failed with %T, want *PanicError", f.err)
		}
		if perr.Seed != 106 || perr.Stack == nil || !strings.Contains(perr.Error(), "panicked") {
			t.Fatalf("panic error %v (seed %d) lacks seed 106, stack or message", perr, perr.Seed)
		}
	}
	if seeds := plan.FiredSeeds(faultinject.KindPanic); len(seeds) != 1 || seeds[0] != 106 {
		t.Fatalf("plan fired seeds %v, want [106]", seeds)
	}
}

// TestPanicContainmentInAttemptBody: panics raised by the attempt
// function itself (not the injector) are contained identically.
func TestPanicContainmentInAttemptBody(t *testing.T) {
	newAttempt := func() AttemptFunc[int64] {
		return func(ctx context.Context, attempt int, seed int64) (int64, error) {
			if attempt == 1 {
				panic(fmt.Sprintf("boom at %d", attempt))
			}
			return int64(attempt), nil
		}
	}
	var seen []folded
	if _, err := Run(context.Background(), Options{Attempts: 3, Seed: 1}, newAttempt, collect(&seen)); err != nil {
		t.Fatalf("contained run errored: %v", err)
	}
	var perr *PanicError
	if len(seen) != 3 || !errors.As(seen[1].err, &perr) || seen[0].err != nil || seen[2].sol != 2 {
		t.Fatalf("folds %+v, want attempt 1 panicked and 0, 2 intact", seen)
	}
}

// TestAllAttemptsPanic: every attempt dying still terminates cleanly
// with the full prefix folded.
func TestAllAttemptsPanic(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteAttempt, Kind: faultinject.KindPanic,
		Attempt: faultinject.Any, Index: faultinject.Any,
	})
	var seen []folded
	n, err := Run(context.Background(), Options{Attempts: 4, Seed: 9, Inject: plan}, seedAttempts, collect(&seen))
	if err != nil || n != 4 || len(seen) != 4 {
		t.Fatalf("all-panic run: n=%d err=%v folds=%d, want 4 folds", n, err, len(seen))
	}
	for _, f := range seen {
		var perr *PanicError
		if !errors.As(f.err, &perr) {
			t.Fatalf("attempt %d folded %v, want a *PanicError", f.attempt, f.err)
		}
	}
}

// TestFatalCanAbortOnPanic: a fold may still treat a panic as fatal;
// the run then stops at the first panicked index.
func TestFatalCanAbortOnPanic(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.PanicAtAttempt(1))
	var seen []folded
	n, err := Run(context.Background(), Options{Attempts: 4, Seed: 1, Inject: plan}, seedAttempts,
		func(attempt int, sol int64, err error) bool {
			seen = append(seen, folded{attempt, sol, err})
			var perr *PanicError
			return errors.As(err, &perr)
		})
	if err != nil || n != 2 || len(seen) != 2 || seen[1].err == nil {
		t.Fatalf("n=%d err=%v folds %+v, want a stop at the panic of attempt 1", n, err, seen)
	}
}

// TestSpuriousCancelIsNotBudget: an injected cancellation error wraps
// context.Canceled while the real context is live; the run must fold
// it as an ordinary failed attempt, not truncate the prefix as a
// budget stop.
func TestSpuriousCancelIsNotBudget(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.CancelAtAttempt(0))
	var seen []folded
	n, err := Run(context.Background(), Options{Attempts: 3, Seed: 5, Inject: plan}, seedAttempts, collect(&seen))
	if err != nil {
		t.Fatalf("spurious cancel aborted the search: %v", err)
	}
	if n != 3 || len(seen) != 3 {
		t.Fatalf("folded %d (%d folds), want the full run", n, len(seen))
	}
	for _, f := range seen {
		if (f.err != nil) != (f.attempt == 0) {
			t.Fatalf("attempt %d folded err %v, want exactly attempt 0 failed", f.attempt, f.err)
		}
	}
	if !errors.Is(seen[0].err, context.Canceled) {
		t.Fatalf("injected cancel lost its context.Canceled wrap: %v", seen[0].err)
	}
}

// TestDegradedFoldMatchesHealthyFold: the surviving attempts of a
// degraded run fold exactly the same solutions as the same run without
// injection — the panicked index just flips to failed.
func TestDegradedFoldMatchesHealthyFold(t *testing.T) {
	run := func(inject *faultinject.Plan) []folded {
		var seen []folded
		if _, err := Run(context.Background(), Options{Attempts: 6, Seed: 40, SeedStride: 7, Workers: 3, Inject: inject}, seedAttempts, collect(&seen)); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	healthy := run(nil)
	degraded := run(faultinject.NewPlan(faultinject.PanicAtAttempt(3)))
	if len(healthy) != len(degraded) {
		t.Fatalf("fold lengths differ: %d vs %d", len(healthy), len(degraded))
	}
	for i := range healthy {
		if degraded[i].attempt != healthy[i].attempt {
			t.Fatalf("fold order diverged at %d", i)
		}
		if healthy[i].attempt == 3 {
			if degraded[i].err == nil {
				t.Fatal("panicked attempt folded as accepted")
			}
			continue
		}
		if degraded[i] != healthy[i] {
			t.Fatalf("surviving attempt %d diverged: %+v vs %+v", healthy[i].attempt, degraded[i], healthy[i])
		}
	}
}
