package search

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// valueAttempts builds attempt functions whose attempt i
// deterministically yields vals[i] (or an error for negative entries).
func valueAttempts(vals []int) func() AttemptFunc[int] {
	return func() AttemptFunc[int] {
		return func(_ context.Context, i int, _ int64) (int, error) {
			if vals[i] < 0 {
				return 0, fmt.Errorf("attempt %d failed", i)
			}
			return vals[i], nil
		}
	}
}

// record returns a fold that never stops and appends every folded
// attempt index to *order.
func record(order *[]int) FoldFunc[int] {
	return func(i, _ int, _ error) bool {
		*order = append(*order, i)
		return false
	}
}

func TestRunReducesInIndexOrder(t *testing.T) {
	vals := []int{7, 5, -1, 5, 3, 9}
	for _, workers := range []int{1, 2, 8} {
		var order []int
		n, err := Run(context.Background(), Options{Attempts: len(vals), Workers: workers, Seed: 10},
			valueAttempts(vals), record(&order))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != len(vals) || len(order) != len(vals) {
			t.Fatalf("workers=%d: folded %d (fold saw %d), want %d", workers, n, len(order), len(vals))
		}
		for i, idx := range order {
			if i != idx {
				t.Fatalf("workers=%d: fold order %v not index order", workers, order)
			}
		}
	}
}

func TestRunSeedStream(t *testing.T) {
	seeds := make([]int64, 5)
	newAttempt := func() AttemptFunc[int] {
		return func(_ context.Context, i int, seed int64) (int, error) {
			seeds[i] = seed
			return 0, nil
		}
	}
	var order []int
	if _, err := Run(context.Background(), Options{Attempts: 5, Seed: 100, SeedStride: 7}, newAttempt, record(&order)); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		if want := int64(100 + 7*i); s != want {
			t.Fatalf("attempt %d seed %d, want %d", i, s, want)
		}
	}
}

// TestRunStartSkipsFoldedPrefix: a run resumed at Start dispatches and
// folds only attempts Start.., each with the seed it has in a full run.
func TestRunStartSkipsFoldedPrefix(t *testing.T) {
	seeds := make([]int64, 6)
	newAttempt := func() AttemptFunc[int] {
		return func(_ context.Context, i int, seed int64) (int, error) {
			seeds[i] = seed
			return i, nil
		}
	}
	var order []int
	n, err := Run(context.Background(), Options{Attempts: 6, Start: 4, Workers: 3, Seed: 5, SeedStride: 11}, newAttempt, record(&order))
	if err != nil || n != 6 {
		t.Fatalf("n=%d err=%v, want 6 folded", n, err)
	}
	if fmt.Sprint(order) != "[4 5]" || seeds[3] != 0 || seeds[4] != 5+4*11 || seeds[5] != 5+5*11 {
		t.Fatalf("fold order %v seeds %v, want attempts 4 and 5 only", order, seeds)
	}
	order = nil
	if n, err := Run(context.Background(), Options{Attempts: 6, Start: 6}, newAttempt, record(&order)); err != nil || n != 6 || order != nil {
		t.Fatalf("Start=Attempts: n=%d err=%v folded %v, want nothing dispatched", n, err, order)
	}
}

// TestRunStaleStopDeterministic: a fold's stop freezes the run at the
// attempt it stopped on, on any worker count. The fold here stops after
// 3 consecutive non-improving values: best improves at 0 and 4, so it
// stops right after folding index 3 and the improving attempt 4 is
// never folded.
func TestRunStaleStopDeterministic(t *testing.T) {
	vals := []int{5, 6, 6, 6, 1, 1, 1, 1}
	for _, workers := range []int{1, 3, 8} {
		var order []int
		best, stale := -1, 0
		n, err := Run(context.Background(), Options{Attempts: len(vals), Workers: workers}, valueAttempts(vals),
			func(i, v int, _ error) bool {
				order = append(order, i)
				if best < 0 || v < best {
					best, stale = v, 0
				} else {
					stale++
				}
				return stale >= 3
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if best != 5 || n != 4 || len(order) != 4 {
			t.Fatalf("workers=%d: best=%d folded=%d fold saw %v, want best=5 after 4", workers, best, n, order)
		}
	}
}

// TestRunFatalAbortsAtFirstFoldedIndex: a fold that stops on an
// attempt's error sees nothing past that index, on any worker count.
func TestRunFatalAbortsAtFirstFoldedIndex(t *testing.T) {
	fatalErr := errors.New("invariant violated")
	newAttempt := func() AttemptFunc[int] {
		return func(_ context.Context, i int, _ int64) (int, error) {
			if i == 3 {
				return 0, fatalErr
			}
			return i, nil
		}
	}
	for _, workers := range []int{1, 4} {
		var order []int
		var fatal error
		n, err := Run(context.Background(), Options{Attempts: 10, Workers: workers}, newAttempt,
			func(i, _ int, err error) bool {
				order = append(order, i)
				fatal = err
				return errors.Is(err, fatalErr)
			})
		if err != nil || !errors.Is(fatal, fatalErr) {
			t.Fatalf("workers=%d: err=%v fatal=%v, want a clean stop on fatalErr", workers, err, fatal)
		}
		if n != 4 || fmt.Sprint(order) != "[0 1 2 3]" {
			t.Fatalf("workers=%d: folded %d, fold saw %v, want 0..3", workers, n, order)
		}
	}
}

// TestRunBudgetPrefix cancels the search after the first K attempts
// have been folded; attempts past K block until cancellation. The fold
// must cover exactly the first K indices, and the error be a
// *ErrBudget.
func TestRunBudgetPrefix(t *testing.T) {
	const k = 3
	vals := []int{9, 4, 6, 2, 1, 1, 1, 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	newAttempt := func() AttemptFunc[int] {
		return func(ctx context.Context, i int, _ int64) (int, error) {
			if i >= k {
				<-ctx.Done() // deterministic checkpoint: abandon on cancel
				return 0, fmt.Errorf("attempt %d: %w", i, ctx.Err())
			}
			return vals[i], nil
		}
	}
	best := -1
	n, err := Run(ctx, Options{Attempts: len(vals), Workers: 4}, newAttempt, func(i, v int, _ error) bool {
		if best < 0 || v < best {
			best = v
		}
		if i == k-1 {
			cancel()
		}
		return false
	})
	var be *ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("err=%v, want *ErrBudget", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("budget error should wrap context.Canceled, got %v", err)
	}
	if be.Folded != k || n != k {
		t.Fatalf("folded=%d/%d, want %d", be.Folded, n, k)
	}
	if best != 4 {
		t.Fatalf("best=%d, want best of prefix (4)", best)
	}
}

func TestRunDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	newAttempt := func() AttemptFunc[int] {
		return func(ctx context.Context, i int, _ int64) (int, error) {
			if i == 0 {
				return 1, nil
			}
			<-ctx.Done()
			return 0, ctx.Err()
		}
	}
	var order []int
	_, err := Run(ctx, Options{Attempts: 6, Workers: 2}, newAttempt, record(&order))
	var be *ErrBudget
	if !errors.As(err, &be) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want *ErrBudget wrapping deadline", err)
	}
	if fmt.Sprint(order) != "[0]" {
		t.Fatalf("fold saw %v, want the completed attempt 0 only", order)
	}
}

func TestRunValidation(t *testing.T) {
	ok := func() AttemptFunc[int] {
		return func(context.Context, int, int64) (int, error) { return 0, nil }
	}
	fold := func(int, int, error) bool { return false }
	for name, run := range map[string]func() (int, error){
		"nil attempt": func() (int, error) {
			return Run(context.Background(), Options{Attempts: 1}, nil, fold)
		},
		"nil fold": func() (int, error) {
			return Run[int](context.Background(), Options{Attempts: 1}, ok, nil)
		},
		"zero attempts": func() (int, error) {
			return Run(context.Background(), Options{}, ok, fold)
		},
		"negative attempts": func() (int, error) {
			return Run(context.Background(), Options{Attempts: -2}, ok, fold)
		},
		"negative workers": func() (int, error) {
			return Run(context.Background(), Options{Attempts: 1, Workers: -1}, ok, fold)
		},
	} {
		if _, err := run(); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestRunWorkerScratchIsolation checks newAttempt is invoked once per
// worker so closures can own scratch without locking.
func TestRunWorkerScratchIsolation(t *testing.T) {
	var factories atomic.Int32
	var mu sync.Mutex
	perWorker := map[*int]int{}
	newAttempt := func() AttemptFunc[int] {
		factories.Add(1)
		scratch := new(int)
		return func(_ context.Context, i int, _ int64) (int, error) {
			*scratch++
			mu.Lock()
			perWorker[scratch]++
			mu.Unlock()
			return i, nil
		}
	}
	var order []int
	if _, err := Run(context.Background(), Options{Attempts: 20, Workers: 4}, newAttempt, record(&order)); err != nil {
		t.Fatal(err)
	}
	if n := factories.Load(); n != 4 {
		t.Fatalf("newAttempt called %d times, want once per worker (4)", n)
	}
	total := 0
	for scratch, n := range perWorker {
		if *scratch != n {
			t.Fatalf("scratch reuse mismatch: %d uses recorded, counter %d", n, *scratch)
		}
		total += n
	}
	if total != 20 {
		t.Fatalf("attempts across workers = %d, want 20", total)
	}
}

// TestRunCancelRace drives cancellation concurrently with running
// workers; meaningful under -race.
func TestRunCancelRace(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(trial%4) * 100 * time.Microsecond)
			cancel()
		}()
		newAttempt := func() AttemptFunc[int] {
			return func(ctx context.Context, i int, _ int64) (int, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				time.Sleep(50 * time.Microsecond)
				return i, nil
			}
		}
		var order []int
		n, err := Run(ctx, Options{Attempts: 64, Workers: 8}, newAttempt, record(&order))
		var be *ErrBudget
		if err != nil && !errors.As(err, &be) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		if err == nil && n != 64 {
			t.Fatalf("clean completion folded %d of 64", n)
		}
		if n != len(order) {
			t.Fatalf("Run reports %d folded, fold saw %d", n, len(order))
		}
		cancel()
	}
}
