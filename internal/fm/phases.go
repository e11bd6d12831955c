package fm

import (
	"fpgapart/internal/faultinject"
	"fpgapart/internal/trace"
)

// runPhases drives the phase schedule that both pass algorithms share:
// plain passes to convergence, then, when replication is enabled,
// alternating plain and replication-only phases until a full round is
// dry. The replication-only phase restricts the move universe to
// replicate and unreplicate so that cut-neutral single moves cannot
// crowd out replication opportunities; the following plain phase
// re-optimizes positions. A phase runs passes until one fails to
// improve the objective, at most cfg.MaxPasses of them, and the
// alternation runs at most cfg.MaxPasses rounds. Of cfg, which must
// carry its defaults, only Threshold, MaxPasses, Seed, TraceAttempt,
// Spans and Inject are read.
//
// pass runs pass number n (counted from 1 in this call) with the given
// replication threshold and move universe, and reports whether it
// improved the objective, how many moves it applied and the objective
// after its best-prefix rollback. The driver times each pass as a
// spanName span that ends with the pass's KindFMPass event, and
// consults cfg.Inject before it (faultinject.SitePass, ordinal = passes
// run so far in this call); an injected fault ends the schedule with
// its error.
//
// A pass is a deterministic function of the state it starts from, and
// a dry pass rolls the state back to exactly where it started. The
// driver counts the passes that improved the objective (the state
// version) and records, per phase kind, the version at which that kind
// last ran a dry pass. A pass of a kind whose last dry pass ran at the
// current version would start from that same state and also be dry, so
// the driver does not run it: the phase ends as if it had, but no event
// is emitted, no span opened, no fault plan consulted and no pass
// counted.
func runPhases(cfg Config, spanName string, pass func(n, threshold int, replOnly bool) (improved bool, moves, cut int)) (passes, moves int, err error) {
	version := 0
	dryAt := [2]int{-1, -1} // by kind: plain, replication-only
	phase := func(replOnly bool) (gained bool, err error) {
		kind, threshold := 0, NoReplication
		if replOnly {
			kind, threshold = 1, cfg.Threshold
		}
		if dryAt[kind] == version {
			return false, nil
		}
		for i := 0; i < cfg.MaxPasses; i++ {
			if cfg.Inject != nil {
				if err := cfg.Inject.At(faultinject.SitePass, cfg.TraceAttempt, passes, cfg.Seed); err != nil {
					return gained, err
				}
			}
			run := cfg.Spans.Start(spanName, cfg.TraceAttempt)
			improved, m, cut := pass(passes+1, threshold, replOnly)
			passes++
			moves += m
			run.EndEvent(trace.Event{Kind: trace.KindFMPass, Pass: passes, Moves: m, Cut: cut})
			if !improved {
				dryAt[kind] = version
				break
			}
			version++
			gained = true
		}
		return gained, nil
	}
	if cfg.Threshold == NoReplication {
		_, err = phase(false)
		return passes, moves, err
	}
	for round := 0; round < cfg.MaxPasses; round++ {
		p, err := phase(false)
		if err != nil {
			return passes, moves, err
		}
		rr, err := phase(true)
		if err != nil {
			return passes, moves, err
		}
		if !p && !rr {
			break
		}
	}
	return passes, moves, nil
}
