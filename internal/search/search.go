// Package search is the deterministic multi-start orchestrator shared
// by the partitioning drivers (kway's solution search, the multilevel
// V-cycle's coarsest multi-start, expt's per-circuit experiment
// fan-out). It runs independent randomized attempts on a bounded
// worker pool — each attempt owns a seed derived only from its index —
// and reduces the outcomes in strict index order, so the result is
// byte-identical for a fixed seed regardless of worker count or
// completion order.
//
// Budgets cut a search short without sacrificing that contract: a
// wall-clock deadline or cancellation arrives through the
// context.Context handed to every attempt (attempts observe it only at
// their own deterministic checkpoints), a max-stale limit stops the
// reduction after too many consecutive non-improving solutions, and
// the attempt count itself bounds total work. Whenever the search ends
// early, the reduction covers exactly the longest contiguous prefix of
// attempt indices that completed — so a truncated run reports the same
// accepted solutions and the same running best as an unbudgeted run
// folded over that prefix.
//
// Attempts are fault-isolated: a panic inside one attempt is recovered
// by its worker and folded as a failed attempt carrying a typed
// *PanicError (attempt index, seed, panic value, stack), so one
// poisoned attempt degrades the reduction — Stats.Panicked counts the
// casualties — instead of killing the process. Because the reduction
// is index-ordered and a panicked attempt occupies its index exactly
// like any other failed attempt, the surviving attempts fold
// deterministically: a run with attempt i panicked reports the same
// solutions for every other attempt as a healthy run.
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

// Options configures one orchestrated search.
type Options struct {
	// Attempts is the total number of randomized attempts (the
	// max-solutions budget). Must be positive.
	Attempts int
	// Workers bounds pool size (default min(GOMAXPROCS, Attempts)).
	Workers int
	// Seed is the base of the per-attempt seed stream: attempt i runs
	// with seed Seed + i*SeedStride.
	Seed int64
	// SeedStride separates consecutive attempt seeds (default 1). Large
	// prime strides keep per-attempt generator streams well apart.
	SeedStride int64
	// MaxStale stops the search after this many consecutive accepted
	// solutions fail to improve the best (0 disables). The stop is
	// evaluated during the index-ordered reduction, so it is
	// deterministic.
	MaxStale int
	// Inject, when non-nil, arms deterministic fault injection: each
	// worker consults the plan at the start of every attempt
	// (faultinject.SiteAttempt). Production runs leave it nil — the
	// cost is one predicted branch per attempt.
	Inject *faultinject.Plan
	// Checkpoint, when non-nil, receives a Progress snapshot after
	// every folded attempt. It is invoked by the single-threaded
	// index-ordered reducer, so snapshots arrive in strict attempt
	// order and callers may persist them without synchronization. A
	// nil hook costs one predicted branch per fold and the enabled
	// path allocates nothing (Progress is a flat value struct).
	Checkpoint func(Progress)
	// Spans, when armed, wraps every attempt in an "attempt" span and
	// hands each attempt its own child scope through the context
	// (span.FromContext), so engine spans nest under their attempt.
	// The disarmed zero value costs one predicted branch per attempt.
	// Spans only read the clock; they never influence the search.
	Spans span.Scope
}

// Progress is an attempt-granular snapshot of the reduction, handed to
// Options.Checkpoint after each folded attempt. Together with the best
// solution of a checkpointed run it is exactly the state a later
// ResumeState needs: because attempt i derives all randomness from
// Seed + i*SeedStride, a search resumed at Folded with the same
// options folds the remaining attempts byte-identically to the
// uninterrupted run.
type Progress struct {
	// Folded is the number of attempts the reduction covers so far.
	Folded int
	// BestAttempt is the attempt index of the incumbent best solution,
	// -1 while no attempt has been accepted.
	BestAttempt int
	// Stale is the current count of consecutive accepted solutions
	// that failed to improve the best (the MaxStale counter).
	Stale int
	// Stats mirrors the reduction statistics at this point.
	Stats Stats
}

// ResumeState seeds the reduction mid-stream: Run starts dispatching
// at attempt Folded and folds from the restored incumbent instead of
// an empty reduction. Because per-attempt seeds depend only on the
// attempt index, a resumed search reports byte-identical solutions
// for every attempt at or past Folded, and the final Outcome equals
// the uninterrupted run's whenever the restored fields match a
// Progress snapshot (plus incumbent) of the same options.
type ResumeState[S any] struct {
	// Folded is the number of attempts already folded; dispatch
	// resumes at this index.
	Folded int
	// BestAttempt is the attempt index that produced Best (-1 = none).
	BestAttempt int
	// Stale restores the MaxStale counter.
	Stale int
	// Stats restores the reduction statistics of the folded prefix.
	Stats Stats
	// Best and Found restore the incumbent best solution.
	Best  S
	Found bool
}

// AttemptFunc runs one randomized attempt. It must derive all
// randomness from seed and observe ctx only at checkpoints where
// abandoning the attempt cannot perturb a completed search.
type AttemptFunc[S any] func(ctx context.Context, attempt int, seed int64) (S, error)

// Driver supplies the search-specific behavior.
type Driver[S any] struct {
	// NewAttempt returns the attempt function for one worker. It is
	// called once per worker goroutine, so the returned closure may own
	// reusable scratch buffers without synchronization.
	NewAttempt func() AttemptFunc[S]
	// Better reports whether a is strictly preferable to b (the
	// lexicographic objective). Nil keeps the first accepted solution.
	Better func(a, b S) bool
	// Observe, when non-nil, is invoked in strict attempt-index order
	// for every attempt folded into the reduction — accepted (err nil)
	// or failed — with improved reporting whether the solution became
	// the new best. Attempts cut off by a budget are never observed.
	Observe func(attempt int, sol S, err error, improved bool)
	// Fatal, when non-nil, classifies attempt errors that must abort
	// the whole search (returned wrapped in *AttemptError) instead of
	// counting as a failed attempt.
	Fatal func(err error) bool
	// Resume, when non-nil, restarts the search from a persisted
	// progress point instead of attempt 0. See ResumeState.
	Resume *ResumeState[S]
}

// Stats summarizes the reduction.
type Stats struct {
	// Folded is the number of attempts included in the reduction (the
	// contiguous completed prefix).
	Folded int
	// Accepted and Failed split the folded attempts by outcome.
	Accepted, Failed int
	// Panicked counts the folded attempts that died to a contained
	// panic (a subset of Failed). A non-zero count marks the reduction
	// as degraded: it still covers the full prefix deterministically,
	// but the panicked indices contributed no solution.
	Panicked int
	// Improved counts how many accepted solutions became the best.
	Improved int
	// StaleStop reports that MaxStale ended the search early.
	StaleStop bool
}

// Outcome is the reduced result of a search.
type Outcome[S any] struct {
	// Best is the best accepted solution under Driver.Better; valid
	// only when Found.
	Best  S
	Found bool
	Stats Stats
}

// ErrBudget reports that the context deadline or cancellation cut the
// search short. The accompanying Outcome still carries the best
// solution of the folded prefix.
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

// AttemptError wraps a fatal attempt error with the attempt index it
// surfaced at.
type AttemptError struct {
	Attempt int
	Err     error
}

func (e *AttemptError) Error() string {
	return fmt.Sprintf("search: attempt %d: %v", e.Attempt, e.Err)
}

func (e *AttemptError) Unwrap() error { return e.Err }

// PanicError is the contained form of an attempt that panicked: the
// worker recovers the panic and folds the attempt as failed, carrying
// this error. It records which seed died and the recovered value plus
// stack for diagnosis. Unless Driver.Fatal classifies it as fatal, a
// PanicError never aborts the search — it degrades the reduction.
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

// report is one attempt's raw outcome in flight to the reducer.
type report[S any] struct {
	attempt int
	sol     S
	err     error
}

// runAttempt executes one attempt with panic containment and the
// attempt-site fault hook. A recovered panic becomes a *PanicError so
// the reducer folds the attempt as failed instead of the process
// dying; the deferred recover on the happy path costs nanoseconds and
// allocates nothing.
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

// Run executes the search. It returns a *ErrBudget when the context
// ended the search early, a *AttemptError when Driver.Fatal aborted
// it, and nil otherwise (including MaxStale early stops); in every
// case Outcome reflects the deterministic index-ordered reduction over
// the folded attempt prefix.
func Run[S any](ctx context.Context, opts Options, d Driver[S]) (Outcome[S], error) {
	var out Outcome[S]
	if d.NewAttempt == nil {
		return out, errors.New("search: Driver.NewAttempt is required")
	}
	if opts.Attempts <= 0 {
		return out, fmt.Errorf("search: Attempts must be positive, got %d", opts.Attempts)
	}
	if opts.Workers < 0 {
		return out, fmt.Errorf("search: Workers must be non-negative, got %d", opts.Workers)
	}
	if opts.MaxStale < 0 {
		return out, fmt.Errorf("search: MaxStale must be non-negative, got %d", opts.MaxStale)
	}
	start := 0
	resumeStale := 0
	bestAttempt := -1
	if rs := d.Resume; rs != nil {
		if rs.Folded < 0 || rs.Folded > opts.Attempts {
			return out, fmt.Errorf("search: resume Folded %d outside [0,%d]", rs.Folded, opts.Attempts)
		}
		if rs.BestAttempt >= rs.Folded {
			return out, fmt.Errorf("search: resume BestAttempt %d not inside the folded prefix %d", rs.BestAttempt, rs.Folded)
		}
		start = rs.Folded
		resumeStale = rs.Stale
		bestAttempt = rs.BestAttempt
		out.Best, out.Found = rs.Best, rs.Found
		out.Stats = rs.Stats
		out.Stats.Folded = rs.Folded
		if start == opts.Attempts {
			// Everything was already folded before the interruption; the
			// resumed outcome is the restored reduction itself.
			return out, nil
		}
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
	// done tells the dispatcher to stop handing out attempts after a
	// deterministic early stop (stale or fatal); in-flight attempts
	// still finish and drain through results.
	done := make(chan struct{})
	var stopDispatch sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attempt := d.NewAttempt()
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

	// Reduce in strict index order: buffer out-of-order completions and
	// fold the contiguous frontier. Stopping (for any reason) freezes
	// the reduction; the loop keeps draining so every worker exits.
	pending := make(map[int]report[S], workers)
	frontier := start
	stale := resumeStale
	var fatal *AttemptError
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
			// the reduction stays a prefix of the unbudgeted search.
			if cerr := ctx.Err(); cerr != nil && rr.err != nil && errors.Is(rr.err, cerr) {
				budget = &ErrBudget{Cause: cerr, Folded: frontier}
				stop()
				break
			}
			if rr.err != nil && d.Fatal != nil && d.Fatal(rr.err) {
				fatal = &AttemptError{Attempt: frontier, Err: rr.err}
				stop()
				break
			}
			improved := false
			if rr.err == nil {
				if !out.Found || (d.Better != nil && d.Better(rr.sol, out.Best)) {
					out.Best = rr.sol
					out.Found = true
					improved = true
					bestAttempt = frontier
				}
				out.Stats.Accepted++
				if improved {
					out.Stats.Improved++
					stale = 0
				} else {
					stale++
				}
			} else {
				out.Stats.Failed++
				var perr *PanicError
				if errors.As(rr.err, &perr) {
					out.Stats.Panicked++
				}
			}
			if d.Observe != nil {
				d.Observe(frontier, rr.sol, rr.err, improved)
			}
			frontier++
			out.Stats.Folded = frontier
			if opts.Checkpoint != nil {
				opts.Checkpoint(Progress{Folded: frontier, BestAttempt: bestAttempt, Stale: stale, Stats: out.Stats})
			}
			if rr.err == nil && opts.MaxStale > 0 && stale >= opts.MaxStale {
				out.Stats.StaleStop = true
				stop()
			}
		}
	}

	switch {
	case fatal != nil:
		return out, fatal
	case budget != nil:
		return out, budget
	case !out.Stats.StaleStop && frontier < opts.Attempts:
		// The dispatcher quit on ctx.Done before every attempt was even
		// started; no folded attempt carried the context error, but the
		// search is still budget-truncated.
		return out, &ErrBudget{Cause: ctx.Err(), Folded: frontier}
	default:
		return out, nil
	}
}
