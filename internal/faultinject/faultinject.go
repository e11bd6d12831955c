// Package faultinject is the deterministic fault-injection layer of
// the partitioning engines: a seed-keyed plan of scheduled faults
// (panics, delays, spurious cancellations, allocation-cap trips) that
// the orchestration hot paths consult behind a nil check. With a nil
// plan the production path pays one predicted branch and allocates
// nothing; with a plan armed, faults fire at exact, reproducible
// points — a (site, attempt, ordinal) coordinate — so a failure
// scenario replays bit-identically run after run.
//
// The injection sites mirror the engines' deterministic checkpoints:
//
//   - SiteAttempt: the start of one search attempt (internal/search
//     worker pool; the attempt index is the coordinate).
//   - SiteCarve: one carve try inside a k-way solution attempt
//     (internal/kway; ordinal = the per-carve try counter).
//   - SitePass: one FM pass boundary (internal/fm; ordinal = the pass
//     sequence number within the run).
//
// Faults are expressed as Rules; every firing is recorded in the
// plan's log together with the seed governing the faulted unit of
// work, so a test can assert not only that a fault fired but exactly
// which seeds died. See DESIGN.md §11 for the fault model and the
// containment contract the engines uphold.
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Site identifies an injection point class.
type Site uint8

const (
	// SiteAttempt fires at the start of a search attempt, before any
	// attempt work runs.
	SiteAttempt Site = iota + 1
	// SiteCarve fires at the top of one carve try in kway's carve loop.
	SiteCarve
	// SitePass fires before one FM pass inside the fm engine.
	SitePass
	// SiteWAL fires inside the job store's WAL append path, after the
	// record header has been written but before the payload completes —
	// a KindPanic rule there kills the process mid-record, leaving a
	// genuine torn tail for the replay path to truncate. The ordinal is
	// the store's append sequence number; the attempt selector is
	// unused (always -1).
	SiteWAL
)

// String returns the spec-grammar name of the site.
func (s Site) String() string {
	switch s {
	case SiteAttempt:
		return "attempt"
	case SiteCarve:
		return "carve"
	case SitePass:
		return "pass"
	case SiteWAL:
		return "wal"
	default:
		return "unknown"
	}
}

// Kind is the fault flavor a rule injects.
type Kind uint8

const (
	// KindPanic panics at the site with a *Panic value. The search
	// layer's containment converts it into a failed, degraded attempt.
	KindPanic Kind = iota + 1
	// KindDelay sleeps Rule.Delay at the site — a "slow worker" fault
	// for exercising timeout budgets and drain paths.
	KindDelay
	// KindCancel returns a *CancelError wrapping context.Canceled even
	// though the real context is still live — a spurious cancellation
	// that the reduction must classify as an ordinary failed attempt,
	// not a budget stop.
	KindCancel
	// KindAllocCap returns a *AllocCapError simulating a tripped memory
	// budget; the engines treat it as an ordinary attempt failure.
	KindAllocCap
)

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	case KindAllocCap:
		return "alloccap"
	default:
		return "unknown"
	}
}

// Any matches every attempt index or site ordinal in a Rule selector.
const Any = -1

// Rule schedules one fault. A rule fires when an engine reaches a
// site whose (attempt, ordinal) coordinate matches the selectors and
// the rule's firing budget is not exhausted.
type Rule struct {
	Site Site
	Kind Kind
	// Attempt selects the solution-attempt index the rule applies to
	// (Any = every attempt). Engines running outside a search label
	// their sites with attempt -1, which only Any matches.
	Attempt int
	// Index selects the ordinal within the site (carve try number, FM
	// pass sequence; Any = every ordinal). SiteAttempt ignores Index.
	Index int
	// Delay is the sleep duration for KindDelay rules.
	Delay time.Duration
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
}

// PanicAtAttempt schedules a panic at the start of attempt n.
func PanicAtAttempt(n int) Rule {
	return Rule{Site: SiteAttempt, Kind: KindPanic, Attempt: n, Index: Any}
}

// CancelAtAttempt schedules a spurious cancellation of attempt n.
func CancelAtAttempt(n int) Rule {
	return Rule{Site: SiteAttempt, Kind: KindCancel, Attempt: n, Index: Any}
}

// DelayAtAttempt makes attempt n (Any = every attempt) sleep d before
// doing any work — the injected slow worker.
func DelayAtAttempt(n int, d time.Duration) Rule {
	return Rule{Site: SiteAttempt, Kind: KindDelay, Attempt: n, Index: Any, Delay: d}
}

// DelayAtPass makes FM pass m of attempt n sleep d.
func DelayAtPass(n, m int, d time.Duration) Rule {
	return Rule{Site: SitePass, Kind: KindDelay, Attempt: n, Index: m, Delay: d}
}

// AllocCapAtCarve trips the simulated allocation cap at carve try m of
// attempt n.
func AllocCapAtCarve(n, m int) Rule {
	return Rule{Site: SiteCarve, Kind: KindAllocCap, Attempt: n, Index: m}
}

// Panic is the value a KindPanic rule panics with. Containment layers
// surface it through their typed panic errors.
type Panic struct {
	Site    Site
	Attempt int
	Index   int
	Seed    int64
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s %d/%d (seed %d)", p.Site, p.Attempt, p.Index, p.Seed)
}

// CancelError is the spurious-cancellation fault: it wraps
// context.Canceled so errors.Is(err, context.Canceled) holds even
// though no context was actually cancelled.
type CancelError struct {
	Site    Site
	Attempt int
	Index   int
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("faultinject: injected cancellation at %s %d/%d: %v", e.Site, e.Attempt, e.Index, context.Canceled)
}

func (e *CancelError) Unwrap() error { return context.Canceled }

// AllocCapError is the simulated allocation-budget trip.
type AllocCapError struct {
	Site    Site
	Attempt int
	Index   int
}

func (e *AllocCapError) Error() string {
	return fmt.Sprintf("faultinject: allocation cap tripped at %s %d/%d", e.Site, e.Attempt, e.Index)
}

// Firing records one fault that fired.
type Firing struct {
	Rule    int // index into the plan's rule list
	Site    Site
	Kind    Kind
	Attempt int
	Index   int
	// Seed is the seed of the faulted unit of work (the attempt seed
	// for SiteAttempt, the FM run seed for SitePass, the carve-loop
	// attempt seed for SiteCarve).
	Seed int64
}

// Plan is an armed fault schedule. The zero value of *Plan (nil) is
// the production configuration: every hook is a nil check. A non-nil
// Plan is safe for concurrent use by the search workers; rule matching
// is deterministic per (site, attempt, ordinal) coordinate, so which
// faults fire never depends on scheduling — only the interleaving of
// the firing log does.
type Plan struct {
	mu    sync.Mutex
	rules []Rule
	fired []int
	log   []Firing
}

// NewPlan arms a plan with the given rules.
func NewPlan(rules ...Rule) *Plan {
	return &Plan{rules: rules, fired: make([]int, len(rules))}
}

// Firings returns a copy of the firing log, in firing order.
func (p *Plan) Firings() []Firing {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Firing(nil), p.log...)
}

// FiredSeeds returns the seeds of the units of work a given fault kind
// hit — e.g. the seeds of the attempts that were panicked.
func (p *Plan) FiredSeeds(k Kind) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var seeds []int64
	for _, f := range p.log {
		if f.Kind == k {
			seeds = append(seeds, f.Seed)
		}
	}
	return seeds
}

// Reset clears the firing log and per-rule counters so the same plan
// replays from scratch.
func (p *Plan) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = p.log[:0]
	for i := range p.fired {
		p.fired[i] = 0
	}
}

// match reports the first fireable rule for the coordinate and commits
// its firing, or -1.
func (p *Plan) match(site Site, attempt, index int, seed int64) (Rule, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if r.Site != site {
			continue
		}
		if r.Attempt != Any && r.Attempt != attempt {
			continue
		}
		if site != SiteAttempt && r.Index != Any && r.Index != index {
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		p.fired[i]++
		p.log = append(p.log, Firing{Rule: i, Site: site, Kind: r.Kind, Attempt: attempt, Index: index, Seed: seed})
		return r, true
	}
	return Rule{}, false
}

// At is the engine hook: it fires the first matching rule for the
// coordinate. KindDelay sleeps and returns nil; KindCancel and
// KindAllocCap return their typed errors; KindPanic panics with a
// *Panic value. A nil *Plan receiver is legal and does nothing, so
// hook sites may call it through an interface-free nil check:
//
//	if plan != nil {
//		if err := plan.At(faultinject.SiteCarve, attempt, try, seed); err != nil { ... }
//	}
func (p *Plan) At(site Site, attempt, index int, seed int64) error {
	if p == nil {
		return nil
	}
	r, ok := p.match(site, attempt, index, seed)
	if !ok {
		return nil
	}
	switch r.Kind {
	case KindPanic:
		panic(&Panic{Site: site, Attempt: attempt, Index: index, Seed: seed})
	case KindDelay:
		time.Sleep(r.Delay)
		return nil
	case KindCancel:
		return &CancelError{Site: site, Attempt: attempt, Index: index}
	case KindAllocCap:
		return &AllocCapError{Site: site, Attempt: attempt, Index: index}
	default:
		return fmt.Errorf("faultinject: unknown fault kind %d", r.Kind)
	}
}
