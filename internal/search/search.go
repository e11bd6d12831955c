// Package search is the deterministic attempt pool shared by the
// best-of-N reduction of internal/kway (the solution search, local or
// distributed) and expt's per-circuit experiment fan-out. It runs
// independent randomized attempts on a bounded worker pool — each
// attempt owns a seed derived only from its index — and hands the
// completions to the caller's fold in strict index order, so whatever
// the fold computes is byte-identical for a fixed seed regardless of
// worker count or completion order. The caller's fold holds all the
// reduction state: the pool keeps no incumbent, counters or stop rule.
//
// A run ends when every attempt is folded, when the fold asks to stop
// (a deterministic decision, since it sees attempts in index order),
// or when the context's deadline or cancellation cuts it short.
// Attempts observe the context only at their own deterministic
// checkpoints, and the fold covers exactly the longest contiguous
// prefix of attempt indices that completed, so a truncated run folds
// the same attempts as an unbudgeted run over that prefix.
//
// Attempts are fault-isolated: a panic inside one attempt is recovered
// by its worker and folded as a failed attempt carrying a typed
// *PanicError (attempt index, seed, panic value, stack), so one
// poisoned attempt degrades the fold instead of killing the process.
// A panicked attempt occupies its index like any other failed attempt,
// so every other attempt folds exactly as in a healthy run.
package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/span"
)

// Options configures one run of the pool.
type Options struct {
	// Attempts is the total number of randomized attempts (the
	// max-solutions budget). Must be positive.
	Attempts int
	// Start is the first attempt to dispatch, in [0, Attempts]: a
	// caller resuming a fold it restored over attempts [0, Start)
	// continues at Start.
	Start int
	// Workers bounds pool size (default min(GOMAXPROCS, Attempts-Start)).
	Workers int
	// Seed is the base of the per-attempt seed stream: attempt i runs
	// with seed Seed + i*SeedStride.
	Seed int64
	// SeedStride separates consecutive attempt seeds (default 1). Large
	// prime strides keep per-attempt generator streams well apart.
	SeedStride int64
	// Inject, when non-nil, arms deterministic fault injection: each
	// worker consults the plan at the start of every attempt
	// (faultinject.SiteAttempt). Production runs leave it nil — the
	// cost is one predicted branch per attempt.
	Inject *faultinject.Plan
	// Spans, when armed, wraps every attempt in an "attempt" span and
	// hands each attempt its own child scope through the context
	// (span.FromContext), so engine spans nest under their attempt.
	// The disarmed zero value costs one predicted branch per attempt.
	// Spans only read the clock; they never influence the search.
	Spans span.Scope
}

// AttemptFunc runs one randomized attempt. It must derive all
// randomness from seed and observe ctx only at checkpoints where
// abandoning the attempt cannot perturb a completed search.
type AttemptFunc[S any] func(ctx context.Context, attempt int, seed int64) (S, error)

// FoldFunc folds one attempt — a solution, or the error it failed
// with — and reports whether the run should stop. Run calls it from a
// single goroutine in strict attempt-index order, so it may update its
// state without synchronization.
type FoldFunc[S any] func(attempt int, sol S, err error) (stop bool)

// ErrBudget reports that the context deadline or cancellation cut the
// search short. The fold still covers the completed attempt prefix.
type ErrBudget struct {
	// Cause is the context error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
	// Folded is the number of attempts the reduction covered.
	Folded int
}

func (e *ErrBudget) Error() string {
	return fmt.Sprintf("search: budget exhausted after %d attempts: %v", e.Folded, e.Cause)
}

func (e *ErrBudget) Unwrap() error { return e.Cause }

// PanicError is the contained form of an attempt that panicked: the
// worker recovers the panic and folds the attempt as failed, carrying
// this error. It records which seed died and the recovered value plus
// stack for diagnosis.
type PanicError struct {
	// Attempt and Seed identify the unit of work that died.
	Attempt int
	Seed    int64
	// Value is the recovered panic value; Stack the goroutine stack
	// captured at recovery.
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("search: attempt %d (seed %d) panicked: %v", e.Attempt, e.Seed, e.Value)
}

// report is one attempt's raw outcome in flight to the fold.
type report[S any] struct {
	attempt int
	sol     S
	err     error
}

// runAttempt executes one attempt with panic containment and the
// attempt-site fault hook. A recovered panic becomes a *PanicError so
// the fold sees a failed attempt instead of the process dying; the
// deferred recover on the happy path costs nanoseconds and allocates
// nothing.
func runAttempt[S any](ctx context.Context, fn AttemptFunc[S], attempt int, seed int64, plan *faultinject.Plan) (sol S, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Attempt: attempt, Seed: seed, Value: v, Stack: debug.Stack()}
		}
	}()
	if plan != nil {
		if ferr := plan.At(faultinject.SiteAttempt, attempt, 0, seed); ferr != nil {
			return sol, ferr
		}
	}
	return fn(ctx, attempt, seed)
}

// Run dispatches attempts Start..Attempts-1 to the pool and folds
// their outcomes in index order. newAttempt is called once per worker
// goroutine, so the attempt function it returns may own reusable
// scratch without synchronization. Run returns the number of attempts
// folded — the index one past the last attempt handed to fold — and a
// *ErrBudget when the context ended the run before every attempt was
// folded and the fold had not stopped it.
func Run[S any](ctx context.Context, opts Options, newAttempt func() AttemptFunc[S], fold FoldFunc[S]) (int, error) {
	if newAttempt == nil || fold == nil {
		return 0, errors.New("search: newAttempt and fold are required")
	}
	if opts.Attempts <= 0 {
		return 0, fmt.Errorf("search: Attempts must be positive, got %d", opts.Attempts)
	}
	if opts.Workers < 0 {
		return 0, fmt.Errorf("search: Workers must be non-negative, got %d", opts.Workers)
	}
	start := opts.Start
	if start >= opts.Attempts {
		return start, nil
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Attempts-start {
		workers = opts.Attempts - start
	}
	stride := opts.SeedStride
	if stride == 0 {
		stride = 1
	}

	next := make(chan int)
	results := make(chan report[S], workers)
	// done tells the dispatcher to stop handing out attempts after the
	// fold stopped the run; in-flight attempts still finish and drain
	// through results.
	done := make(chan struct{})
	var stopDispatch sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attempt := newAttempt()
			for i := range next {
				actx := ctx
				run := opts.Spans.Start("attempt", i)
				if opts.Spans.Enabled() {
					actx = span.NewContext(ctx, run.Scope())
				}
				sol, err := runAttempt(actx, attempt, i, opts.Seed+int64(i)*stride, opts.Inject)
				run.End()
				results <- report[S]{attempt: i, sol: sol, err: err}
			}
		}()
	}
	go func() {
		defer close(next)
		for i := start; i < opts.Attempts; i++ {
			select {
			case next <- i:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fold in strict index order: buffer out-of-order completions and
	// fold the contiguous frontier. Stopping (for any reason) freezes
	// the fold; the loop keeps draining so every worker exits.
	pending := make(map[int]report[S], workers)
	frontier := start
	var budget *ErrBudget
	stopped := false
	stop := func() {
		stopped = true
		stopDispatch.Do(func() { close(done) })
	}
	for r := range results {
		if stopped {
			continue
		}
		pending[r.attempt] = r
		for !stopped {
			rr, ok := pending[frontier]
			if !ok {
				break
			}
			delete(pending, frontier)
			// An attempt abandoned at a cancellation checkpoint ends the
			// foldable prefix: everything at or past it is excluded so
			// the fold stays a prefix of the unbudgeted search.
			if cerr := ctx.Err(); cerr != nil && rr.err != nil && errors.Is(rr.err, cerr) {
				budget = &ErrBudget{Cause: cerr, Folded: frontier}
				stop()
				break
			}
			frontier++
			if fold(rr.attempt, rr.sol, rr.err) {
				stop()
			}
		}
	}

	switch {
	case budget != nil:
		return frontier, budget
	case !stopped && frontier < opts.Attempts:
		// The dispatcher quit on ctx.Done before every attempt was even
		// started; no folded attempt carried the context error, but the
		// run is still budget-truncated.
		return frontier, &ErrBudget{Cause: ctx.Err(), Folded: frontier}
	default:
		return frontier, nil
	}
}
