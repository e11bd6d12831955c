package kway

import (
	"context"
	"errors"
	"fmt"

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
	// search.Driver.NewAttempt).
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
// metrics.Score.Better wins. It owns everything about the fold both the
// local engine and a coordinator fanning attempts out to remote workers
// need to agree on byte for byte — the fold-side aggregates, the
// SearchCheckpoint snapshots and their cadence, resume validation and
// the replay of the incumbent attempt, the trace events and spans of
// the reduction, and the mapping of the outcome to *InfeasibleError,
// *search.ErrBudget and FoldStats.Stopped. Of opts it reads only the
// search shape (Solutions, Seed, Workers, MaxStale), the durability
// plumbing (Checkpoint, CheckpointEvery, Resume) and the observability
// hooks (Spans and its sink, Inject).
func Reduce[S any](ctx context.Context, opts Options, r Reducer[S]) (best S, fs FoldStats, err error) {
	if opts, err = opts.withDefaults(); err != nil {
		return best, fs, err
	}
	// The aggregates are maintained inside Observe — single-threaded,
	// index-ordered — so the float accumulation order is fixed too.
	var (
		costSum  float64
		firstErr error
	)
	drv := search.Driver[S]{
		NewAttempt: r.NewAttempt,
		Better:     func(a, b S) bool { return r.Score(a).Better(r.Score(b)) },
		Fatal:      r.Fatal,
		Observe: func(attempt int, sol S, err error, improved bool) {
			if err != nil {
				fs.Failed++
				if firstErr == nil {
					firstErr = err
				}
				var perr *search.PanicError
				panicked := errors.As(err, &perr)
				if panicked {
					fs.PanickedSeeds = append(fs.PanickedSeeds, perr.Seed)
				}
				opts.Spans.Event(trace.Event{Kind: trace.KindSolution, Attempt: attempt, Reason: err.Error(), Panic: panicked})
				return
			}
			fs.Feasible++
			sc := r.Score(sol)
			if fs.Feasible == 1 || sc.Cost < fs.CostMin {
				fs.CostMin = sc.Cost
			}
			if sc.Cost > fs.CostMax {
				fs.CostMax = sc.Cost
			}
			costSum += sc.Cost
			opts.Spans.Event(trace.Event{
				Kind: trace.KindSolution, Attempt: attempt,
				Feasible: true, Cost: sc.Cost, Parts: sc.K, Improved: improved,
				Topo: sc.Topo, HasTopo: sc.HasTopo,
			})
		},
	}
	if cp := opts.Resume; cp != nil {
		if cp.Seed != opts.Seed || cp.Solutions != opts.Solutions {
			return best, fs, fmt.Errorf("kway: checkpoint is for seed %d / %d solutions, options say seed %d / %d solutions", cp.Seed, cp.Solutions, opts.Seed, opts.Solutions)
		}
		if cp.Folded < 0 || cp.Folded > opts.Solutions || cp.BestAttempt >= cp.Folded {
			return best, fs, fmt.Errorf("kway: corrupt checkpoint: folded %d, best attempt %d, %d solutions", cp.Folded, cp.BestAttempt, opts.Solutions)
		}
		fs.Feasible, fs.Failed = cp.Accepted, cp.Failed
		fs.CostMin, fs.CostMax, costSum = cp.CostMin, cp.CostMax, cp.CostSum
		if cp.FirstError != "" {
			firstErr = errors.New(cp.FirstError)
		}
		fs.PanickedSeeds = append(fs.PanickedSeeds, cp.PanickedSeeds...)
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
		rs := &search.ResumeState[S]{
			Folded:      cp.Folded,
			BestAttempt: cp.BestAttempt,
			Stale:       cp.Stale,
			Stats: search.Stats{
				Folded:   cp.Folded,
				Accepted: cp.Accepted,
				Failed:   cp.Failed,
				Panicked: cp.Panicked,
				Improved: cp.Improved,
			},
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
			rs.Best, rs.Found = sol, true
		}
		drv.Resume = rs
		resumeSpan.EndEvent(trace.Event{Kind: trace.KindResume, Folded: cp.Folded, BestAttempt: cp.BestAttempt})
	}
	// The checkpoint wrapper runs inside the single-threaded reducer,
	// immediately after Observe for the same attempt, so the fold-side
	// aggregates it captures are exactly current at each snapshot.
	var sCheckpoint func(search.Progress)
	if opts.Checkpoint != nil {
		sCheckpoint = func(p search.Progress) {
			if p.Folded%opts.CheckpointEvery != 0 && p.Folded != opts.Solutions {
				return
			}
			cp := SearchCheckpoint{
				Seed: opts.Seed, Solutions: opts.Solutions,
				Folded: p.Folded, BestAttempt: p.BestAttempt, Stale: p.Stale,
				Accepted: p.Stats.Accepted, Failed: p.Stats.Failed,
				Panicked: p.Stats.Panicked, Improved: p.Stats.Improved,
				CostMin: fs.CostMin, CostMax: fs.CostMax, CostSum: costSum,
			}
			if firstErr != nil {
				cp.FirstError = firstErr.Error()
			}
			if len(fs.PanickedSeeds) > 0 {
				cp.PanickedSeeds = append([]int64(nil), fs.PanickedSeeds...)
			}
			opts.Spans.Event(trace.Event{Kind: trace.KindCheckpoint, Attempt: p.Folded - 1, Folded: p.Folded, BestAttempt: p.BestAttempt})
			opts.Checkpoint(cp)
		}
	}
	searchSpan := opts.Spans.Start("search", -1)
	out, serr := search.Run(ctx, search.Options{
		Attempts:   opts.Solutions,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
		SeedStride: SeedStride,
		MaxStale:   opts.MaxStale,
		Inject:     opts.Inject,
		Checkpoint: sCheckpoint,
		Spans:      searchSpan.Scope(),
	}, drv)
	searchSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseSearch})
	var budget *search.ErrBudget
	if serr != nil {
		var ae *search.AttemptError
		switch {
		case errors.As(serr, &ae):
			// Fatal attempt: surface the underlying error itself (for the
			// local engine, the *VerificationError).
			return best, fs, ae.Err
		case errors.As(serr, &budget):
			// The folded prefix may still hold a feasible incumbent.
		default:
			return best, fs, serr
		}
	}
	if !out.Found {
		inf := &InfeasibleError{Attempts: out.Stats.Folded, First: firstErr}
		if budget != nil {
			return best, fs, fmt.Errorf("%v: %w", inf, budget)
		}
		return best, fs, inf
	}
	fs.CostMean = costSum / float64(fs.Feasible)
	fs.Panicked = out.Stats.Panicked
	fs.Degraded = out.Stats.Panicked > 0
	switch {
	case budget != nil:
		fs.Stopped = StoppedBudget
	case out.Stats.StaleStop:
		fs.Stopped = StoppedStale
	}
	return out.Best, fs, nil
}
