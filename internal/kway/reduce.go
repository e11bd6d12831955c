package kway

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"fpgapart/internal/metrics"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// FoldStats are the fold-side aggregates of a best-of-N search: what
// the index-ordered reduction records beyond the incumbent itself.
type FoldStats struct {
	// Feasible counts complete feasible solutions generated; Failed
	// counts abandoned attempts.
	Feasible, Failed int
	// CostMin/CostMax/CostMean summarize the device cost across the
	// feasible solutions the randomized search generated — the spread
	// the best-of-N selection exploits.
	CostMin, CostMax, CostMean float64
	// Stopped records why the search ended before folding all Solutions
	// attempts: "" (ran to completion), StoppedStale (MaxStale
	// consecutive non-improving solutions) or StoppedBudget (context
	// cancellation/deadline with a feasible incumbent in hand).
	Stopped string
	// Degraded reports that at least one solution attempt died to a
	// contained panic: the result is still the deterministic best of
	// the surviving attempts, but the panicked indices contributed
	// nothing. Panicked counts them and PanickedSeeds records the seeds
	// that died, for offline reproduction of the crash.
	Degraded      bool
	Panicked      int
	PanickedSeeds []int64
	// Resumed reports that the search restarted from a checkpoint
	// (Options.Resume); ResumedFrom is the attempt index it continued
	// from (meaningful only when Resumed).
	Resumed     bool
	ResumedFrom int
}

// Reducer supplies what differs between the callers of Reduce: how one
// attempt runs, which attempt errors abort the search, and how to read
// a solution's score.
type Reducer[S any] struct {
	// NewAttempt returns one search worker's attempt function (see
	// search.Run).
	NewAttempt func() search.AttemptFunc[S]
	// Replay runs the resume checkpoint's incumbent attempt; nil
	// replays through a fresh NewAttempt().
	Replay search.AttemptFunc[S]
	// Fatal classifies the attempt errors that abort the search instead
	// of folding as failed attempts.
	Fatal func(error) bool
	// Score reads the objective values a solution competes and is
	// reported with.
	Score func(S) metrics.Score
}

// Reduce runs the best-of-N search over opts.Solutions attempts and
// folds them in attempt-index order: the best solution under
// metrics.Score.Better wins, the earlier attempt on equal scores. It
// owns everything about the fold both the local engine and a
// coordinator fanning attempts out to remote workers need to agree on
// byte for byte — the fold state (a SearchCheckpoint plus the
// incumbent), the MaxStale stop, the per-fold checkpoint snapshots,
// resume validation and the replay of the incumbent attempt, the trace
// events and spans of the reduction, and the mapping of the outcome to
// *InfeasibleError, *search.ErrBudget and FoldStats.Stopped;
// internal/search only runs the attempt pool. Of opts it reads only
// the search shape (Solutions, Seed, Workers, MaxStale), the
// durability plumbing (Checkpoint, Resume) and the observability hooks
// (Spans and its sink, Inject).
func Reduce[S any](ctx context.Context, opts Options, r Reducer[S]) (best S, fs FoldStats, err error) {
	if opts, err = opts.withDefaults(); err != nil {
		return best, fs, err
	}
	// st is the whole fold state besides the incumbent itself, so a
	// checkpoint is a copy of it and a resume restores it. It is
	// updated only by fold — single-threaded, index-ordered — so the
	// float accumulation order is fixed too.
	st := SearchCheckpoint{Seed: opts.Seed, Solutions: opts.Solutions, BestAttempt: -1}
	var (
		bestScore metrics.Score
		firstErr  error
		fatal     error
	)
	staleStop := func() bool { return opts.MaxStale > 0 && st.Stale >= opts.MaxStale }
	if cp := opts.Resume; cp != nil {
		if cp.Seed != opts.Seed || cp.Solutions != opts.Solutions {
			return best, fs, fmt.Errorf("kway: checkpoint is for seed %d / %d solutions, options say seed %d / %d solutions", cp.Seed, cp.Solutions, opts.Seed, opts.Solutions)
		}
		if cp.Folded < 0 || cp.Folded > opts.Solutions || cp.BestAttempt >= cp.Folded {
			return best, fs, fmt.Errorf("kway: corrupt checkpoint: folded %d, best attempt %d, %d solutions", cp.Folded, cp.BestAttempt, opts.Solutions)
		}
		st = *cp
		st.PanickedSeeds = append([]int64(nil), cp.PanickedSeeds...)
		if cp.FirstError != "" {
			firstErr = errors.New(cp.FirstError)
		}
		fs.Resumed, fs.ResumedFrom = true, cp.Folded
		// The "resume" span is labeled with the attempt the run continues
		// from and ends with the KindResume event. The replay's spans land
		// under it in the same trace as the original run (the caller
		// derives the TraceID from the checkpoint identity), so a
		// crash-recovered job reads as one timeline.
		resumeSpan := opts.Spans.Start("resume", cp.Folded)
		if opts.Spans.Enabled() {
			resumeSpan.Detail(fmt.Sprintf("folded=%d best_attempt=%d", cp.Folded, cp.BestAttempt))
		}
		if cp.BestAttempt >= 0 {
			// Reconstruct the incumbent by replaying its attempt:
			// attempt i derives all randomness from Seed + i*SeedStride,
			// so the replay is byte-identical to the solution the
			// interrupted run held.
			replay := r.Replay
			if replay == nil {
				replay = r.NewAttempt()
			}
			// The replay reconstructs known state, not new search work:
			// its scope drops the sink, so it emits no events.
			rctx := ctx
			if opts.Spans.Enabled() {
				rctx = span.NewContext(ctx, resumeSpan.Scope().WithSink(nil))
			}
			sol, rerr := replay(rctx, cp.BestAttempt, opts.Seed+int64(cp.BestAttempt)*SeedStride)
			if rerr != nil {
				resumeSpan.End()
				return best, fs, fmt.Errorf("kway: checkpoint replay of attempt %d failed: %w", cp.BestAttempt, rerr)
			}
			best, bestScore = sol, r.Score(sol)
		}
		resumeSpan.EndEvent(trace.Event{Kind: trace.KindResume, Folded: cp.Folded, BestAttempt: cp.BestAttempt})
	}
	// fold applies one attempt, in this order: the fatal check, the
	// incumbent and counts, the solution event, the checkpoint (cadence
	// filter, then its event), then the stale stop.
	fold := func(attempt int, sol S, err error) bool {
		if err != nil && r.Fatal != nil && r.Fatal(err) {
			fatal = err
			return true
		}
		st.Folded++
		if err != nil {
			st.Failed++
			if firstErr == nil {
				firstErr, st.FirstError = err, err.Error()
			}
			var perr *search.PanicError
			panicked := errors.As(err, &perr)
			if panicked {
				st.Panicked++
				st.PanickedSeeds = append(st.PanickedSeeds, perr.Seed)
			}
			opts.Spans.Event(trace.Event{Kind: trace.KindSolution, Attempt: attempt, Reason: err.Error(), Panic: panicked})
		} else {
			sc := r.Score(sol)
			improved := st.BestAttempt < 0 || sc.Better(bestScore)
			if improved {
				best, bestScore, st.BestAttempt = sol, sc, attempt
				st.Improved++
				st.Stale = 0
			} else {
				st.Stale++
			}
			st.Accepted++
			if st.Accepted == 1 || sc.Cost < st.CostMin {
				st.CostMin = sc.Cost
			}
			if sc.Cost > st.CostMax {
				st.CostMax = sc.Cost
			}
			st.CostSum += sc.Cost
			opts.Spans.Event(trace.Event{
				Kind: trace.KindSolution, Attempt: attempt,
				Feasible: true, Cost: sc.Cost, Parts: sc.K, Improved: improved,
				Topo: sc.Topo, HasTopo: sc.HasTopo,
			})
		}
		if opts.Checkpoint != nil {
			cp := st
			cp.PanickedSeeds = slices.Clone(st.PanickedSeeds)
			opts.Spans.Event(trace.Event{Kind: trace.KindCheckpoint, Attempt: attempt, Folded: st.Folded, BestAttempt: st.BestAttempt})
			opts.Checkpoint(cp)
		}
		return err == nil && staleStop()
	}
	searchSpan := opts.Spans.Start("search", -1)
	var serr error
	// A checkpoint taken at the stale stop is a finished reduction:
	// resuming from it dispatches nothing.
	if !staleStop() {
		_, serr = search.Run(ctx, search.Options{
			Attempts:   opts.Solutions,
			Start:      st.Folded,
			Workers:    opts.Workers,
			Seed:       opts.Seed,
			SeedStride: SeedStride,
			Inject:     opts.Inject,
			Spans:      searchSpan.Scope(),
		}, r.NewAttempt, fold)
	}
	searchSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseSearch})
	var budget *search.ErrBudget
	if serr != nil && !errors.As(serr, &budget) {
		return best, fs, serr
	}
	if fatal != nil {
		// Surface the fatal attempt error itself (for the local engine,
		// the *VerificationError).
		return best, fs, fatal
	}
	if st.BestAttempt < 0 {
		inf := &InfeasibleError{Attempts: st.Folded, First: firstErr}
		if budget != nil {
			return best, fs, fmt.Errorf("%v: %w", inf, budget)
		}
		return best, fs, inf
	}
	fs.Feasible, fs.Failed = st.Accepted, st.Failed
	fs.CostMin, fs.CostMax, fs.CostMean = st.CostMin, st.CostMax, st.CostSum/float64(st.Accepted)
	fs.Panicked, fs.Degraded, fs.PanickedSeeds = st.Panicked, st.Panicked > 0, st.PanickedSeeds
	switch {
	case budget != nil:
		fs.Stopped = StoppedBudget
	case staleStop():
		fs.Stopped = StoppedStale
	}
	return best, fs, nil
}
