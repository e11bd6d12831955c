package kway

import (
	"context"
	"errors"
	"testing"
	"time"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/fm"
	"fpgapart/internal/search"
	"fpgapart/internal/trace"
)

// TestInjectedPanicDegraded is the containment contract at the kway
// level: one poisoned attempt degrades the result — the survivors fold
// deterministically and the failure is reported — instead of killing
// the run.
func TestInjectedPanicDegraded(t *testing.T) {
	g := testCircuit(t, 300, 8)
	const solutions = 6
	const victim = 2

	var healthyRec trace.Recorder
	o := opts(fm.NoReplication, solutions)
	o.Spans = sinkScope(&healthyRec)
	if _, err := Partition(g, o); err != nil {
		t.Fatal(err)
	}

	var injRec trace.Recorder
	oi := opts(fm.NoReplication, solutions)
	oi.Spans = sinkScope(&injRec)
	oi.Inject = faultinject.NewPlan(faultinject.PanicAtAttempt(victim))
	res, err := Partition(g, oi)
	if err != nil {
		t.Fatalf("injected panic killed the run: %v", err)
	}
	if !res.Degraded || res.Panicked != 1 {
		t.Fatalf("Degraded=%v Panicked=%d, want true/1", res.Degraded, res.Panicked)
	}
	if len(res.PanickedSeeds) != 1 {
		t.Fatalf("PanickedSeeds = %v, want exactly one seed", res.PanickedSeeds)
	}

	healthySols := healthyRec.Filter(trace.KindSolution)
	injSols := injRec.Filter(trace.KindSolution)
	if len(injSols) != solutions {
		t.Fatalf("folded %d solution events, want %d (one per attempt)", len(injSols), solutions)
	}
	for i, e := range injSols {
		if e.Attempt != victim {
			// Survivors are bit-identical to the healthy run's attempts.
			if e.Cost != healthySols[i].Cost || e.Feasible != healthySols[i].Feasible {
				t.Fatalf("surviving attempt %d diverged: got cost=%.1f feasible=%v, want %.1f/%v",
					e.Attempt, e.Cost, e.Feasible, healthySols[i].Cost, healthySols[i].Feasible)
			}
			continue
		}
		if e.Feasible || !e.Panic {
			t.Fatalf("victim attempt event not marked as panic failure: %+v", e)
		}
	}

	// The degraded best equals the best over the healthy run's events
	// with the victim excluded.
	wantBest := -1.0
	for _, e := range healthySols {
		if e.Attempt == victim || !e.Feasible {
			continue
		}
		if wantBest < 0 || e.Cost < wantBest {
			wantBest = e.Cost
		}
	}
	if res.Summary.DeviceCost() > wantBest {
		t.Fatalf("degraded best %.1f worse than surviving minimum %.1f", res.Summary.DeviceCost(), wantBest)
	}
	if verr := res.Verify(g); verr != nil {
		t.Fatalf("degraded result fails verification: %v", verr)
	}
}

// TestDegradedDeterminism: the same fault plan yields the same
// degraded result — fault injection is part of the deterministic
// replay surface, not a source of nondeterminism.
func TestDegradedDeterminism(t *testing.T) {
	g := testCircuit(t, 300, 8)
	run := func() (Result, []trace.Event) {
		var rec trace.Recorder
		o := opts(fm.NoReplication, 5)
		o.Spans = sinkScope(&rec)
		o.Inject = faultinject.NewPlan(faultinject.PanicAtAttempt(1))
		res, err := Partition(g, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Filter(trace.KindSolution)
	}
	a, aev := run()
	b, bev := run()
	if a.Summary.DeviceCost() != b.Summary.DeviceCost() || a.Summary.K() != b.Summary.K() {
		t.Fatalf("degraded runs diverged: %v vs %v", a.Summary, b.Summary)
	}
	if len(a.PanickedSeeds) != 1 || len(b.PanickedSeeds) != 1 || a.PanickedSeeds[0] != b.PanickedSeeds[0] {
		t.Fatalf("panicked seeds diverged: %v vs %v", a.PanickedSeeds, b.PanickedSeeds)
	}
	if len(aev) != len(bev) {
		t.Fatalf("event counts diverged: %d vs %d", len(aev), len(bev))
	}
	for i := range aev {
		if aev[i] != bev[i] {
			t.Fatalf("event %d diverged:\n %+v\n %+v", i, aev[i], bev[i])
		}
	}
}

// TestAllAttemptsPanic: when every attempt dies the search must fail
// with the infeasibility contract — an *InfeasibleError whose cause
// chain reaches the contained panic — never a crash.
func TestAllAttemptsPanic(t *testing.T) {
	g := testCircuit(t, 200, 6)
	o := opts(fm.NoReplication, 4)
	o.Inject = faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteAttempt, Kind: faultinject.KindPanic,
		Attempt: faultinject.Any, Index: faultinject.Any,
	})
	_, err := Partition(g, o)
	if err == nil {
		t.Fatal("all-panic run returned a result")
	}
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("want *InfeasibleError, got %T: %v", err, err)
	}
	var perr *search.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("cause chain should reach the contained panic: %v", err)
	}
}

// TestSlowWorkerTimeout: injected slow workers plus a deadline shorter
// than any attempt surface the budget error, exactly like a real
// -timeout expiry with no feasible solution.
func TestSlowWorkerTimeout(t *testing.T) {
	g := testCircuit(t, 200, 6)
	o := opts(fm.NoReplication, 4)
	o.Inject = faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 300*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := PartitionContext(ctx, g, o)
	if err == nil {
		t.Fatal("timed-out run returned a result")
	}
	var budget *search.ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("want *search.ErrBudget, got %T: %v", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget cause should be the deadline: %v", err)
	}
}

// TestSpuriousCancelIsAttemptFailure: an injected cancellation — the
// error says context.Canceled but the real context is live — must fold
// as an ordinary attempt failure, not truncate the search as a budget
// stop.
func TestSpuriousCancelIsAttemptFailure(t *testing.T) {
	g := testCircuit(t, 300, 8)
	const solutions = 5
	o := opts(fm.NoReplication, solutions)
	var rec trace.Recorder
	o.Spans = sinkScope(&rec)
	o.Inject = faultinject.NewPlan(faultinject.CancelAtAttempt(1))
	res, err := Partition(g, o)
	if err != nil {
		t.Fatalf("spurious cancel killed the run: %v", err)
	}
	if res.Stopped == StoppedBudget {
		t.Fatal("spurious cancel was misread as a budget stop")
	}
	if res.Failed < 1 {
		t.Fatalf("Failed = %d, want the cancelled attempt counted", res.Failed)
	}
	if res.Degraded {
		t.Fatal("spurious cancel is not a panic; result must not be Degraded")
	}
	sols := rec.Filter(trace.KindSolution)
	if len(sols) != solutions {
		t.Fatalf("folded %d events, want all %d attempts", len(sols), solutions)
	}
	if sols[1].Feasible {
		t.Fatalf("cancelled attempt folded as feasible: %+v", sols[1])
	}
}

// TestAllocCapContained: a tripped allocation cap abandons that
// attempt with a typed error and the search degrades to the surviving
// attempts.
func TestAllocCapContained(t *testing.T) {
	g := testCircuit(t, 300, 8)
	o := opts(fm.NoReplication, 4)
	o.Inject = faultinject.NewPlan(faultinject.AllocCapAtCarve(1, faultinject.Any))
	res, err := Partition(g, o)
	if err != nil {
		t.Fatalf("alloc-cap trip killed the run: %v", err)
	}
	if res.Failed < 1 {
		t.Fatalf("Failed = %d, want the capped attempt counted", res.Failed)
	}
	if verr := res.Verify(g); verr != nil {
		t.Fatalf("result fails verification: %v", verr)
	}
}

// TestConcurrentCancelWithPanicsRace combines real cancellation racing
// injected panics; under -race this exercises containment plus
// cancellation concurrently. Any coherent outcome is acceptable: a
// verified (possibly degraded) result or a budget/infeasible error.
func TestConcurrentCancelWithPanicsRace(t *testing.T) {
	g := testCircuit(t, 300, 8)
	for i := 0; i < 4; i++ {
		plan := faultinject.NewPlan(faultinject.PanicAtAttempt(i % 3))
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i) * 2 * time.Millisecond)
		o := opts(fm.NoReplication, 8)
		o.Inject = plan
		res, err := PartitionContext(ctx, g, o)
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
