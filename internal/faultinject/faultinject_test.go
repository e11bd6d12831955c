package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if err := p.At(SiteAttempt, 0, 0, 1); err != nil {
		t.Fatalf("nil plan injected: %v", err)
	}
}

func TestPanicRuleFiresOnceAtCoordinate(t *testing.T) {
	p := NewPlan(PanicAtAttempt(2))
	for a := 0; a < 5; a++ {
		fire := func(attempt int) (v any) {
			defer func() { v = recover() }()
			if err := p.At(SiteAttempt, attempt, 0, 100+int64(attempt)); err != nil {
				t.Fatalf("attempt %d: unexpected error %v", attempt, err)
			}
			return nil
		}
		got := fire(a)
		if (a == 2) != (got != nil) {
			t.Fatalf("attempt %d: panic=%v, want fire only at 2", a, got)
		}
		if a == 2 {
			pv, ok := got.(*Panic)
			if !ok {
				t.Fatalf("panic value %T, want *Panic", got)
			}
			if pv.Attempt != 2 || pv.Seed != 102 {
				t.Fatalf("panic value %+v, want attempt 2 seed 102", pv)
			}
		}
	}
	seeds := p.FiredSeeds(KindPanic)
	if len(seeds) != 1 || seeds[0] != 102 {
		t.Fatalf("FiredSeeds = %v, want [102]", seeds)
	}
}

func TestCancelWrapsContextCanceled(t *testing.T) {
	p := NewPlan(CancelAtAttempt(0))
	err := p.At(SiteAttempt, 0, 0, 7)
	if err == nil {
		t.Fatal("cancel rule did not fire")
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T, want *CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestAllocCapTyped(t *testing.T) {
	p := NewPlan(AllocCapAtCarve(Any, 1))
	if err := p.At(SiteCarve, 3, 0, 1); err != nil {
		t.Fatalf("carve try 0 should not fire: %v", err)
	}
	err := p.At(SiteCarve, 3, 1, 1)
	var ae *AllocCapError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T), want *AllocCapError", err, err)
	}
	if ae.Attempt != 3 || ae.Index != 1 {
		t.Fatalf("alloc-cap at %d/%d, want 3/1", ae.Attempt, ae.Index)
	}
}

func TestDelaySleeps(t *testing.T) {
	p := NewPlan(DelayAtPass(Any, 0, 20*time.Millisecond))
	start := time.Now()
	if err := p.At(SitePass, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 20ms", d)
	}
	// Pass 1 does not match.
	start = time.Now()
	if err := p.At(SitePass, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("non-matching pass slept %v", d)
	}
}

func TestCountBudgetAndReset(t *testing.T) {
	p := NewPlan(Rule{Site: SiteCarve, Kind: KindAllocCap, Attempt: Any, Index: Any, Count: 2})
	fired := 0
	for i := 0; i < 5; i++ {
		if p.At(SiteCarve, 0, i, 1) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want count-capped 2", fired)
	}
	p.Reset()
	if p.At(SiteCarve, 0, 0, 1) == nil {
		t.Fatal("reset plan did not fire again")
	}
	if got := len(p.Firings()); got != 1 {
		t.Fatalf("log holds %d firings after reset+1, want 1", got)
	}
}

func TestConcurrentAt(t *testing.T) {
	p := NewPlan(Rule{Site: SiteAttempt, Kind: KindCancel, Attempt: Any, Index: Any})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = p.At(SiteAttempt, w*100+i, 0, int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := len(p.Firings()); got != 800 {
		t.Fatalf("logged %d firings, want 800", got)
	}
}
