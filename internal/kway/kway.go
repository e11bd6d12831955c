// Package kway implements the cost-driven multi-way partitioner: a
// reimplementation of the recursive bipartitioning algorithm of
// Kuznar–Brglez–Kozminski (DAC'93, reference [3] of the paper),
// extended with functional replication at every bipartitioning step
// (Kužnar et al., DAC'94). The objective is Eq. (1) — minimum total
// device cost over a heterogeneous FPGA library — with Eq. (2), the
// average IOB utilization, as the interconnect tie-breaker.
//
// The algorithm: if a (sub)circuit fits a device (utilization within
// [l_i, u_i], terminals ≤ t_i), implement it on the cheapest such
// device. Otherwise carve off a block sized for a randomly chosen host
// device using (replication-)FM with asymmetric area bounds, check its
// terminal constraint, and recurse on the remainder. The carve state
// narrows itself to its block 1 in place (replication.State.Retarget:
// cut nets become terminals, a replicated cell keeps the outputs of its
// remainder copy), and the carved block is recorded as a list of
// source cells with the outputs each copy drives. Repeating this with
// randomized seeds, device choices and fill targets yields many
// feasible k-way solutions; the best under the lexicographic objective
// is returned. PartitionContext builds its parts as subcircuits of the
// source, Engine.Search builds none, and only Options.Verify builds any
// others.
package kway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
	"fpgapart/internal/metrics"
	"fpgapart/internal/multilevel"
	"fpgapart/internal/replication"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
	"fpgapart/internal/verify"
)

// Options configures the k-way search. It is the one declaration of
// the engine options (core.Options is an alias of it), and
// withDefaults is the one place their defaults live: every zero value
// below selects the documented default.
type Options struct {
	// Library is the heterogeneous FPGA device library (Table I).
	// Empty selects library.XC3000(); a non-empty library must pass
	// library.Validate.
	Library library.Library
	// Threshold is the replication potential threshold T (Eq. 6): a
	// multi-output cell may replicate when ψ ≥ T. nil selects T = 1;
	// an explicit value is taken literally, so 0 allows maximum
	// replication and fm.NoReplication reproduces the DAC'93 baseline
	// ([3]). Values below fm.NoReplication are rejected: ψ ≥ 0, so they
	// would silently run at maximum replication.
	Threshold *int
	// Solutions is the number of feasible k-way solutions to generate
	// (the paper reports runs generating 50). Default 50.
	Solutions int
	// RefineWorkers selects the refinement engine for every FM run the
	// search performs (carves and V-cycle levels): values >= 2 use fm's
	// deterministic parallel sub-round engine on states at or above its
	// parallel cutoff (see fm.Config.RefineWorkers), fanning proposals
	// out over min(RefineWorkers, GOMAXPROCS) goroutines, and the
	// serial engine on smaller ones; 0
	// or 1 keep the classic serial engine everywhere, byte-identical to
	// previous releases. Either way fixed-seed results are independent
	// of Workers and GOMAXPROCS, and one result serves every
	// RefineWorkers >= 2.
	RefineWorkers int
	// Multilevel routes large carve subproblems through the
	// internal/multilevel V-cycle: the carve's initial assignment is
	// produced by coarsen → partition → uncoarsen+refine instead of a
	// single cluster-grown seed. The V-cycle refines every level with
	// plain FM down to the finest, which is the carve state itself;
	// the usual replication-FM run then refines that level a second
	// time, its first plain pass repeating the V-cycle's last. Off by
	// default; the flat path is byte-identical to the pre-multilevel
	// engine (see TestFlatPathGolden).
	Multilevel bool
	// MultilevelMinCells gates the V-cycle: subcircuits with fewer
	// cells use the flat cluster-grown assignment even when Multilevel
	// is on (coarsening tiny carve remainders costs more than it
	// saves). Default 512.
	MultilevelMinCells int
	// Workers bounds the solution search's worker pool (0 = one per
	// CPU). Results are byte-identical for a fixed seed regardless of
	// the value; it exists to bound resource use and to let tests pin
	// the trace-event interleaving.
	Workers int
	// Verify enables in-loop invariant checking: every accepted carve
	// is checked against its subcircuit (state invariants, cell
	// coverage, single producer, IOB span accounting, and the state
	// re-targeted to the remainder), its blocks built for the check,
	// and every feasible k-way solution is built and run through the
	// full partition verifier (on a board, the routing check too)
	// before it competes for best. Violations abort the search
	// with a *VerificationError — they indicate a partitioner bug, not
	// an infeasible instance.
	Verify bool
	// MaxStale stops the search early after this many consecutive
	// feasible solutions fail to improve the incumbent best (0 = run
	// all Solutions attempts). The stop is evaluated in deterministic
	// attempt-index order, so results stay schedule-independent.
	MaxStale int
	// Inject, when non-nil, arms deterministic fault injection at the
	// engine's checkpoints: attempt starts (via internal/search), carve
	// tries and FM pass boundaries. Injected panics are contained per
	// attempt — the run degrades (Result.Degraded) instead of crashing.
	// Testing only; nil in production costs one predicted branch per
	// checkpoint.
	Inject *faultinject.Plan
	// Board, when non-nil, places every solution on the board's
	// device-slot topology (internal/topology). The carve is the flat
	// one; an attempt that needs more parts than the board has slots
	// fails. Each finished attempt's parts are then reordered so that
	// part i sits on slot i, by the slot assignment with the least
	// hop-weighted interconnect (Σ Board.SpanCost over nets) that
	// passes verify.Routing; an attempt no assignment routes fails.
	// Solutions are scored by that interconnect (Summary.TopoCost, a
	// lexicographic tie-breaker between device cost and IOB
	// utilization). Nil keeps the paper's flat terminal-cut engine
	// (TestFlatPathGolden); TestBoardPathGolden and
	// TestBoardCarveGolden pin the board path.
	Board *topology.Board
	// Checkpoint, when non-nil, receives a SearchCheckpoint snapshot of
	// the index-ordered reduction after every folded attempt. Snapshots
	// arrive from the single-threaded reducer in strict attempt order,
	// so callers may persist them without synchronization; emission never perturbs search decisions,
	// so fixed-seed results are byte-identical with or without it. A nil
	// hook costs one predicted branch per fold.
	Checkpoint func(SearchCheckpoint)
	// Resume, when non-nil, restarts the search from a persisted
	// checkpoint instead of attempt 0: the incumbent best attempt is
	// replayed deterministically (events and fault injection suppressed
	// for the replay) and the remaining attempts fold byte-identically
	// to the uninterrupted run. The checkpoint's Seed and Solutions
	// must match the options.
	Resume *SearchCheckpoint
	// Spans, when armed, records the search as a causal span tree
	// under the caller's scope (internal/span): one "search" span over
	// the whole reduction, an "attempt" span per solution attempt
	// (minted by internal/search), "fold"/"verify" spans inside each
	// attempt, engine spans (fm-pass / parfm-pass / coarsen / level /
	// uncoarsen) beneath, and a "resume" span over a checkpoint
	// replay. A sink on the scope (span.Scope.WithSink) receives the
	// engine events. Every FM pass, level and resume span ends with its
	// event, and every search, fold, verify, coarsen and uncoarsen span
	// with a KindPhase event carrying its duration. Carve tries and
	// parfm sub-rounds are sent by the search workers in completion
	// order, labeled with their attempt index; KindSolution and
	// KindCheckpoint events by the reduction in deterministic index
	// order. The sink must be safe for concurrent use. Spans only read
	// the tracer's clock — fixed-seed results are byte-identical armed
	// or disarmed (the golden-diff suite runs both), and the disarmed
	// zero value costs one predicted branch per site and emits no
	// events.
	Spans span.Scope
	Seed  int64

	// threshold is Threshold resolved by withDefaults; the FM runs of
	// the search read it.
	threshold int
}

// SearchCheckpoint is the fold state of the k-way search's
// index-ordered reduction (Reduce), serialized: the fold frontier, the
// incumbent best attempt index, the stale counter and the fold-side
// aggregates. Reduce keeps exactly this value plus the incumbent, so a
// checkpoint is a copy of it. It deliberately stores no solution
// content — attempt i derives all randomness from
// Seed + i*SeedStride, so the incumbent is reconstructed by replaying
// its attempt, and a search resumed from a checkpoint folds to the
// byte-identical result of the uninterrupted run.
type SearchCheckpoint struct {
	// Seed and Solutions identify the search the checkpoint belongs
	// to; Resume rejects a mismatch.
	Seed      int64 `json:"seed"`
	Solutions int   `json:"solutions"`
	// Folded is the number of attempts the reduction covers;
	// dispatch resumes at this index.
	Folded int `json:"folded"`
	// BestAttempt is the attempt index of the incumbent best solution
	// (-1 while no attempt has been accepted).
	BestAttempt int `json:"best_attempt"`
	// Stale is the MaxStale counter (consecutive non-improving
	// accepted solutions). A value at or above a positive MaxStale
	// marks the search as finished by the stale stop.
	Stale int `json:"stale"`
	// Accepted and Failed split the folded attempts by outcome;
	// Panicked counts the failed ones that died to a contained panic,
	// Improved the accepted ones that became the best.
	Accepted int `json:"accepted"`
	Failed   int `json:"failed"`
	Panicked int `json:"panicked"`
	Improved int `json:"improved"`
	// CostMin/CostMax/CostSum carry the device-cost spread across the
	// accepted solutions (float64 JSON round-trips exactly, so the
	// resumed CostMean is byte-identical).
	CostMin float64 `json:"cost_min"`
	CostMax float64 `json:"cost_max"`
	CostSum float64 `json:"cost_sum"`
	// PanickedSeeds and FirstError preserve the diagnostic state of
	// the folded prefix (FirstError as a message string; a resumed
	// InfeasibleError wraps a reconstructed error with the same text).
	PanickedSeeds []int64 `json:"panicked_seeds,omitempty"`
	FirstError    string  `json:"first_error,omitempty"`
}

// VerificationError reports an in-loop invariant violation detected by
// Options.Verify. It always wraps the underlying verifier error.
type VerificationError struct {
	// Stage identifies where the violation surfaced: "carve-state",
	// "carve" or "solution".
	Stage string
	Err   error
}

func (e *VerificationError) Error() string {
	return fmt.Sprintf("kway: verification failed at %s: %v", e.Stage, e.Err)
}

func (e *VerificationError) Unwrap() error { return e.Err }

// InfeasibleError reports that the randomized search completed without
// generating a single feasible k-way solution — the "instance does not
// fit the library" failure mode, distinct from verification failures
// (partitioner bugs, *VerificationError) and from budget exhaustion
// (*search.ErrBudget). cmd/kpart maps it to its own exit code.
type InfeasibleError struct {
	// Attempts is the number of solution attempts that all failed.
	Attempts int
	// First preserves the first attempt's failure for diagnosis.
	First error
}

func (e *InfeasibleError) Error() string {
	if e.First == nil {
		return fmt.Sprintf("kway: no feasible solution in %d attempts", e.Attempts)
	}
	return fmt.Sprintf("kway: no feasible solution in %d attempts (first failure: %v)", e.Attempts, e.First)
}

func (e *InfeasibleError) Unwrap() error { return e.First }

// SeedStride separates consecutive attempts' seed streams; a large
// prime keeps the per-attempt generators uncorrelated. It is exported
// (and fixed forever) because the attempt→seed mapping
// Seed + i*SeedStride is the distribution contract: a coordinator that
// runs attempt i on a remote worker as a Solutions=1 search with seed
// Seed + i*SeedStride obtains the byte-identical solution the local
// search would fold at index i.
const SeedStride = 104729

// defaultSolutions is the attempt budget when Options.Solutions is 0.
const defaultSolutions = 50

// carveRetries is the number of carve tries (seed/device/fill
// variations) before a solution attempt is abandoned.
const carveRetries = 20

// OptionError reports an Options field outside its valid range. Every
// range check of withDefaults returns one, so a caller can tell a bad
// request from a failed search (kpartd answers it as a malformed
// request).
type OptionError struct {
	Field string
	Value int
	// Min is the least valid value.
	Min int
}

func (e *OptionError) Error() string {
	if e.Min == 0 {
		return fmt.Sprintf("kway: %s must be non-negative, got %d", e.Field, e.Value)
	}
	return fmt.Sprintf("kway: %s must be at least %d, got %d", e.Field, e.Min, e.Value)
}

func (o Options) withDefaults() (Options, error) {
	checks := []OptionError{
		{"Solutions", o.Solutions, 0},
		{"MaxStale", o.MaxStale, 0},
		{"MultilevelMinCells", o.MultilevelMinCells, 0},
		{"Workers", o.Workers, 0},
		{"RefineWorkers", o.RefineWorkers, 0},
	}
	if o.Threshold != nil {
		checks = append(checks, OptionError{"Threshold", *o.Threshold, fm.NoReplication})
	}
	for _, c := range checks {
		if c.Value < c.Min {
			return o, &c
		}
	}
	if o.Solutions == 0 {
		o.Solutions = defaultSolutions
	}
	if o.MultilevelMinCells == 0 {
		o.MultilevelMinCells = 512
	}
	if len(o.Library.Devices) == 0 {
		o.Library = library.XC3000()
	}
	o.threshold = 1
	if o.Threshold != nil {
		o.threshold = *o.Threshold
	}
	return o, nil
}

// Part is one partition of the final solution.
type Part struct {
	Graph  *hypergraph.Graph
	Device library.Device
	// Replicas is the number of replica cell instances the search made
	// in the part: its "$r" copies. Source cells the circuit already
	// flags hypergraph.Cell.Replica are not counted.
	Replicas int
	// The search keeps a part as its cell copies over the source
	// circuit, in source order, and builds Graph from them only for the
	// result PartitionContext returns and the checks Options.Verify and
	// Result.Verify ask for; an Engine.Search result has none. depth
	// is the number of carves before the part's own and carved marks a
	// carved block against the last remainder, which together name the
	// part; area and terms size it.
	cells       []cellSpec
	depth       int
	carved      bool
	area, terms int
}

// Result is the best k-way solution found.
type Result struct {
	Parts       []Part
	Summary     metrics.Solution
	SourceCells int
	// FoldStats carries the search's fold-side aggregates.
	FoldStats
}

// FoldStats.Stopped values.
const (
	StoppedStale  = "stale"
	StoppedBudget = "budget"
)

// Verify checks the result against its source circuit with the full
// partition verifier: structural validity, device feasibility, cell
// coverage, single-producer replication and IOB span accounting. It
// builds any part graph the result lacks (an Engine.Search result
// lacks all) for the check, leaving r's parts as they are.
func (r Result) Verify(src *hypergraph.Graph) error {
	if slices.ContainsFunc(r.Parts, func(p Part) bool { return p.Graph == nil }) {
		r.Parts = slices.Clone(r.Parts)
		if err := buildParts(src, r.Parts); err != nil {
			return err
		}
	}
	parts := make([]verify.Part, len(r.Parts))
	for i, p := range r.Parts {
		parts[i] = verify.Part{Graph: p.Graph, Device: p.Device}
	}
	return verify.Partition(src, parts, r.Summary)
}

// Partition searches for the minimum-cost feasible k-way partition.
func Partition(g *hypergraph.Graph, opts Options) (Result, error) {
	return PartitionContext(context.Background(), g, opts)
}

// PartitionContext is Partition under a budget: the context's
// deadline/cancellation is observed only at deterministic checkpoints
// (carve boundaries inside each attempt), so a search that runs to
// completion is bit-identical whether or not a budget was armed. When
// the budget fires mid-search the longest contiguous prefix of
// completed attempts is folded: with a feasible incumbent the best so
// far is returned with Result.Stopped = StoppedBudget and a nil error;
// with none, the error wraps *search.ErrBudget. It is a fresh Engine's
// Search with every part's graph built.
func PartitionContext(ctx context.Context, g *hypergraph.Graph, opts Options) (Result, error) {
	var e Engine
	res, err := e.Search(ctx, g, opts)
	if err != nil {
		return Result{}, err
	}
	if err := buildParts(g, res.Parts); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Engine runs k-way searches that share carve storage. Each search
// worker, and a resume's replay, takes a carveScratch off the engine's
// free list (a new one when the list is empty) and puts it back when
// its search ends, so a caller that runs many searches warms that
// storage once rather than once per search. The zero value is ready to
// use, and an Engine is safe for concurrent use. It retains as many
// scratches as its searches ever held at once, each sized to the
// largest circuit it has served and holding the last circuit and board
// it served: a kpartd server, which owns one, keeps at most its job
// workers times one search's workers.
type Engine struct {
	mu   sync.Mutex
	free []*carveScratch
}

// take pops a scratch off the free list, or makes one, and records it
// in held.
func (e *Engine) take(held *[]*carveScratch) *carveScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sc *carveScratch
	if n := len(e.free); n > 0 {
		sc, e.free = e.free[n-1], e.free[:n-1]
	} else {
		sc = new(carveScratch)
	}
	*held = append(*held, sc)
	return sc
}

// Search is PartitionContext without the part graphs: every Part.Graph
// of the result is nil. Result.Verify builds them for its check, and
// the summary rows (Result.Summary.Parts) carry each part's CLBs,
// terminals and cells.
func (e *Engine) Search(ctx context.Context, g *hypergraph.Graph, opts Options) (Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if err := opts.Library.Validate(); err != nil {
		return Result{}, err
	}
	if g.NumCells() == 0 {
		return Result{}, errors.New("kway: empty circuit")
	}
	// Solution attempts are independent; Reduce runs them on a bounded
	// worker pool and folds them in index order, which keeps the search
	// deterministic regardless of scheduling.
	//
	// newAttempt builds one worker's attempt function against an options
	// value. The search workers run it with opts verbatim; the resume
	// path replays the checkpoint's incumbent attempt with fault
	// injection suppressed, under a sink-less scope (Reduce), since the
	// replay reconstructs known state — it is not new search work.
	var held []*carveScratch
	newAttempt := func(o Options) search.AttemptFunc[Result] {
		// Per-worker scratch: the FM runner's gain buckets, the
		// cluster-growing buffers, the carve state and the board
		// placement's tables are all reused across carve attempts,
		// solution attempts and the engine's searches, so a warm worker
		// allocates mainly for the cell lists of the parts it carves.
		sc := e.take(&held)
		return func(ctx context.Context, attempt int, seed int64) (Result, error) {
			// A panic can leave the reused scratch (gain buckets,
			// replication state, the V-cycle's runner) mid-update; drop
			// all of it so the worker's next attempt, and the engine's
			// next search, rebuild from clean buffers, then let the
			// search pool's containment turn the panic into a degraded
			// attempt. Nothing below recovers: a panic in one V-cycle
			// start costs the whole attempt.
			defer func() {
				if v := recover(); v != nil {
					*sc = carveScratch{}
					panic(v)
				}
			}()
			// The search pool hands each attempt its own span scope
			// (and its sink) through the context; engine spans
			// (fm-pass, level, …) nest under it via the options copy.
			if scope := span.FromContext(ctx); scope.Enabled() {
				o.Spans = scope
			}
			parts, err := partitionOnce(ctx, g, o, attempt, seed, sc)
			if err != nil {
				return Result{}, err
			}
			foldSpan := o.Spans.Start("fold", attempt)
			topo := 0
			if o.Board != nil {
				// A solution no slot assignment routes is infeasible
				// on this board: the attempt folds as failed.
				if topo, err = place(o.Board, g, parts, &sc.place); err != nil {
					foldSpan.End()
					return Result{}, err
				}
			}
			remapDevices(parts, o.Library)
			res := assemble(g, parts)
			res.Summary.TopoCost, res.Summary.HasTopo = topo, o.Board != nil
			foldSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseFold})
			if o.Verify {
				verifySpan := o.Spans.Start("verify", attempt)
				if verr := res.verify(g, o.Board); verr != nil {
					verifySpan.End()
					return Result{}, &VerificationError{Stage: "solution", Err: verr}
				}
				verifySpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseVerify})
			}
			return res, nil
		}
	}
	r := Reducer[Result]{
		NewAttempt: func() search.AttemptFunc[Result] { return newAttempt(opts) },
		// Verification failures are partitioner bugs, never ordinary
		// infeasibility: abort the search instead of counting a failed
		// attempt. Reduce surfaces the *VerificationError itself.
		Fatal: func(err error) bool {
			var verr *VerificationError
			return errors.As(err, &verr)
		},
		Score: func(res Result) metrics.Score { return res.Summary.Score() },
	}
	if opts.Resume != nil {
		replay := opts
		replay.Inject = nil
		r.Replay = newAttempt(replay)
	}
	best, fs, err := Reduce(ctx, opts, r)
	// Reduce returns after search.Run has waited for every worker, so no
	// scratch is in use any more.
	e.mu.Lock()
	e.free = append(e.free, held...)
	e.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	best.FoldStats = fs
	return best, nil
}

// remapDevices downgrades each part to the cheapest feasible device:
// a carve targeted at one device's utilization window may fit a
// cheaper part after FM settles.
func remapDevices(parts []Part, lib library.Library) {
	for i := range parts {
		if d, ok := lib.CheapestFit(parts[i].area, parts[i].terms); ok && d.Price < parts[i].Device.Price {
			parts[i].Device = d
		}
	}
}

func assemble(g *hypergraph.Graph, parts []Part) Result {
	res := Result{Parts: parts, SourceCells: g.NumCells()}
	for _, p := range parts {
		res.Summary.Parts = append(res.Summary.Parts, metrics.Part{
			Device:          p.Device,
			CLBs:            p.area,
			Terminals:       p.terms,
			Cells:           len(p.cells),
			ReplicatedCells: p.Replicas,
		})
	}
	return res
}

// carveScratch bundles one worker's reusable storage. The carve state
// st is bound to the source circuit once per attempt and re-targeted to
// its remainder after every accepted carve
// (replication.State.Retarget), so one state serves the whole chain,
// the source being its first remainder; carve retries on the same
// remainder reset it. fm and cluster are its FM runner and
// cluster-growing scratch, assign the initial assignment they fill,
// and rnd the attempt's random stream. ml runs the V-cycle with st as
// its finest level and its own recycled coarse levels, which retarget
// narrows along with st. reps holds, per cell of st, the number of
// carves in which it was the replica (cellSpec.reps), and cells the
// cell lists of the attempt's parts so far; build and place serve the
// checks of Options.Verify and the board placement. The arrays of
// every layer keep their capacity across carves and attempts.
type carveScratch struct {
	st      replication.State
	fm      fm.Runner
	cluster fm.ClusterScratch
	assign  []replication.Block
	rnd     *rand.Rand
	devices []library.Device
	reps    []int32
	cells   []cellSpec
	ml      multilevel.Runner
	build   builder
	place   placer
}

// partitionOnce builds one complete k-way solution, in carve order, or
// fails. On a board it fails as soon as the parts would outnumber the
// slots.
func partitionOnce(ctx context.Context, g *hypergraph.Graph, opts Options, attempt int, seed int64, sc *carveScratch) ([]Part, error) {
	sc.rnd = reseed(sc.rnd, seed)
	r := sc.rnd
	sc.cells = sc.cells[:0]
	sc.reps = slices.Grow(sc.reps[:0], g.NumCells())[:g.NumCells()]
	clear(sc.reps)
	var parts []Part
	// hint is the carve-size goal on which the attempt's latest carve
	// accepted under terminal pressure settled (0: none yet); see
	// carve.
	hint := 0
	// Each carve leaves one remainder, so the loop walks the chain of
	// remainders until one fits a device whole. Unless g fits whole,
	// every remainder, g first, is a view held by sc.st.
	st := &sc.st
	for depth := 0; ; depth++ {
		// Deterministic cancellation checkpoint: the budget is observed
		// only between carves, never inside FM, so every completed
		// attempt is bit-identical with or without a deadline armed.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if depth >= 4*g.NumCells()+64 {
			return nil, fmt.Errorf("kway: recursion guard tripped (seed %d)", seed)
		}
		area, terms := g.TotalArea(), g.NumTerminals()
		if depth > 0 {
			area, terms = st.TotalArea(), st.NumExternal()
		}
		if dev, ok := opts.Library.CheapestFit(area, terms); ok {
			last := Part{Device: dev, depth: depth, area: area, terms: terms}
			lo := len(sc.cells)
			if depth == 0 {
				// The whole circuit fits: the part is the source itself.
				sc.cells = sourceCells(sc.cells, g)
			} else {
				sc.cells = sc.viewCells(sc.cells)
			}
			last.cells = sc.cells[lo:]
			parts = append(parts, last)
			sc.takeParts(parts)
			return parts, nil
		}
		// A carve adds a part and leaves a remainder that needs a slot
		// of its own.
		if b := opts.Board; b != nil && len(parts)+2 > b.Slots {
			return nil, fmt.Errorf("kway: solution needs more than board %s's %d slots (seed %d)", b.Name, b.Slots, seed)
		}
		if depth == 0 {
			// The source is the first view: a cell wider than
			// replication.MaxOutputs fails here.
			if err := st.Rebind(g, sc.block1(g.NumCells()), false); err != nil {
				return nil, fmt.Errorf("kway: %w", err)
			}
		}
		dev, err := carve(ctx, g, opts, attempt, seed, r, sc, &hint, depth)
		if err != nil {
			return nil, err
		}
		lo := len(sc.cells)
		sc.cells = sc.blockCells(sc.cells, 0)
		parts = append(parts, Part{Device: dev, cells: sc.cells[lo:], depth: depth, carved: true, area: st.Area(0), terms: st.Terminals(0)})
		area1, terms1 := st.Area(1), st.Terminals(1)
		sc.retarget()
		if opts.Verify {
			if verr := sc.checkRetarget(area1, terms1); verr != nil {
				return nil, &VerificationError{Stage: "carve-state", Err: verr}
			}
		}
	}
}

// emitCarve reports one carve try to the scope's sink. reason is a
// static code for rejections ("" for acceptance); res carries the FM
// work and delta the replication-state work of this try.
func emitCarve(opts *Options, attempt int, kind trace.Kind, reason string, dev string, area, terms int, res fm.Result, delta replication.Stats) {
	opts.Spans.Event(trace.Event{
		Kind: kind, Attempt: attempt, Reason: reason, Device: dev,
		Area: area, Terminals: terms,
		Moves: res.Moves, Pass: res.Passes,
		Replicas: int(delta.Replicas), Rollbacks: int(delta.Rollbacks),
	})
}

// carve splits off one device-sized block from the remainder sc.st
// holds at depth and returns its host device, leaving the bipartition
// in sc.st. It tries several (device, fill, seed) combinations and
// accepts the first whose carved block satisfies its host device's
// terminal constraint; carveFM's area bounds already hold the block
// inside the device's CLB window and leave the remainder smaller.
// seed is the enclosing attempt's seed, used only to label injected
// faults.
//
// hint carries the carve-size goal across one attempt's carves: a
// carve starts from min(*hint, maxFit) instead of maxFit, and a carve
// accepted after a terminal rejection stores its final goal in *hint.
// The remainder's terminal density barely moves between carves, so
// the next carve skips the rejections that shrank this one. The
// terminal objective is not carried over: every carve starts on the
// cut and switches to t_P0 at its own first rejection.
func carve(ctx context.Context, g *hypergraph.Graph, opts Options, attempt int, seed int64, r *rand.Rand, sc *carveScratch, hint *int, depth int) (library.Device, error) {
	st := &sc.st
	total, terminals := st.TotalArea(), st.NumExternal()
	devices := opts.Library.Devices
	var last rejection
	maxFit := 1
	for _, d := range devices {
		if m := d.MaxCLBs(); m > maxFit && d.MinCLBs() < total {
			maxFit = m
		}
	}
	// want is the carve-size goal; terminal overflows scale it down
	// proportionally (a smaller carve inherits fewer terminals and a
	// smaller cut) and switch the carve objective from pure cut to
	// t_P0 (terminal pressure).
	want := maxFit
	if *hint > 0 && *hint < want {
		want = *hint
	}
	termPressure := false
	termFails := 0
	for try := 0; try < carveRetries; try++ {
		// Deterministic cancellation checkpoint, mirroring the one
		// partitionOnce observes between carves.
		if cerr := ctx.Err(); cerr != nil {
			return library.Device{}, cerr
		}
		// Carve-site fault hook: an injected error abandons the whole
		// solution attempt (it folds as a failed attempt), an injected
		// panic is contained one level up, a delay just stalls the try.
		if opts.Inject != nil {
			if ferr := opts.Inject.At(faultinject.SiteCarve, attempt, try, seed); ferr != nil {
				return library.Device{}, ferr
			}
		}
		density := float64(terminals) / float64(total)
		desired := int((0.85 + 0.15*r.Float64()) * float64(want))
		if desired >= total {
			desired = total - 1
		}
		if desired < 1 {
			desired = 1
		}
		d, ok := pickDevice(devices, total, desired, density, r, try, &sc.devices)
		if !ok {
			last = rejection{reason: trace.RejectNoDevice, x: desired, y: total}
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectNoDevice, "", desired, 0, fm.Result{}, replication.Stats{})
			continue
		}
		target := desired
		if m := d.MaxCLBs(); target > m {
			target = m
		}
		if target >= total {
			target = total - 1
		}
		res, before, cerr := carveFM(d, target, opts, attempt, r.Int63(), termPressure, sc)
		if cerr != nil {
			last = rejection{reason: trace.RejectFM, err: cerr}
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectFM, d.Name, target, 0, fm.Result{}, st.Stats().Sub(before))
			continue
		}
		delta := st.Stats().Sub(before)
		if terms := st.Terminals(0); terms > d.IOBs {
			last = rejection{reason: trace.RejectTerminals, dev: d.Name, x: terms, y: d.IOBs}
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectTerminals, d.Name, st.Area(0), terms, res, delta)
			termFails++
			// First failure: switch the FM objective to t_P0 and retry
			// at the same size. Repeated failures under the terminal
			// objective: scale the goal to what this device's IOBs
			// admit at the observed terminal/CLB ratio, with headroom.
			if termPressure && termFails >= 3 {
				next := int(0.85 * float64(st.Area(0)) * float64(d.IOBs) / float64(terms))
				if next < 4 {
					next = 4
				}
				if next < want {
					want = next
					termFails = 0
				}
			}
			termPressure = true
			continue
		}
		if opts.Verify {
			if verr := st.CheckInvariants(); verr != nil {
				return library.Device{}, &VerificationError{Stage: "carve-state", Err: verr}
			}
			if verr := sc.verifySplit(g, depth); verr != nil {
				return library.Device{}, &VerificationError{Stage: "carve", Err: verr}
			}
		}
		emitCarve(&opts, attempt, trace.KindCarveAccepted, "", d.Name, st.Area(0), st.Terminals(0), res, delta)
		if termPressure {
			*hint = want
		}
		return d, nil
	}
	return library.Device{}, fmt.Errorf("kway: all carve attempts failed: %w", last.error())
}

// rejection is a carve's last rejected try, kept as values and turned
// into an error only when every try fails, so that a carve that
// succeeds after rejections allocates nothing for them. err is the
// error of a try that failed with one (RejectFM).
type rejection struct {
	reason string
	dev    string
	x, y   int
	err    error
}

func (r rejection) error() error {
	switch r.reason {
	case trace.RejectNoDevice:
		return fmt.Errorf("kway: no device can carve %d CLBs from %d", r.x, r.y)
	case trace.RejectTerminals:
		return fmt.Errorf("kway: carve for %s needs %d terminals > %d", r.dev, r.x, r.y)
	}
	return r.err
}

// pickDevice selects a host device for a carve of roughly `desired`
// CLBs: candidates must have a utilization window admitting the
// desired size (with slack), with a bias toward the largest (cheapest
// per CLB). The first two tries of a carve also filter by terminal
// pressure — devices whose IOB count cannot plausibly cover a carve at
// the subcircuit's terminal density are excluded. cand is the
// candidate list's reused storage.
func pickDevice(devices []library.Device, totalArea, desired int, density float64, r *rand.Rand, try int, cand *[]library.Device) (library.Device, bool) {
	c := (*cand)[:0]
	for _, d := range devices {
		if d.MinCLBs() >= totalArea || d.MinCLBs() > desired {
			continue
		}
		size := desired
		if m := d.MaxCLBs(); size > m {
			size = m
		}
		if try < 2 && float64(d.IOBs) < density*float64(size)*0.8 {
			continue
		}
		c = append(c, d)
	}
	if len(c) == 0 {
		for _, d := range devices {
			if d.MinCLBs() < totalArea && d.MinCLBs() <= desired {
				c = append(c, d)
			}
		}
	}
	*cand = c
	if len(c) == 0 {
		return library.Device{}, false
	}
	// Geometric bias toward the tail (largest candidate).
	idx := len(c) - 1
	for idx > 0 && r.Float64() < 0.35+0.1*float64(try%3) {
		idx--
	}
	return c[idx], true
}

// carveFM runs (replication-)FM on sc.st with asymmetric bounds: block
// 0 must land in the device's utilization window, block 1 holds the
// rest, at least minCarve CLBs fewer than the whole. fm.Runner.Run
// refuses a start outside the bounds and applies only moves inside
// them, so a carve it returns is inside them. With pinTerminals, the
// FM objective becomes t_P0 instead of the cut. before is the state's
// stats snapshot taken once it is reset: the carve's own work, the
// V-cycle's refinement of the state excluded, is its stats less it.
func carveFM(d library.Device, target int, opts Options, attempt int, seed int64, pinTerminals bool, sc *carveScratch) (res fm.Result, before replication.Stats, err error) {
	// The carve must stay near its target: without a floor, FM
	// minimizes the cut by collapsing block 0 to a handful of cells,
	// which wastes a device per carve.
	minCarve := d.MinCLBs()
	if floor := target * 4 / 5; floor > minCarve {
		minCarve = floor
	}
	if minCarve < 1 {
		minCarve = 1
	}
	st := &sc.st
	cfg := fm.Config{
		MinArea:       [2]int{minCarve, 0},
		MaxArea:       [2]int{d.MaxCLBs(), st.TotalArea() - minCarve},
		Threshold:     opts.threshold,
		RefineWorkers: opts.RefineWorkers,
		Seed:          seed,
		TraceAttempt:  attempt,
		Spans:         opts.Spans,
		Inject:        opts.Inject,
	}
	// The initial assignment: flat cluster growth by default; behind
	// Options.Multilevel, large remainders go through the V-cycle
	// (coarsen → coarsest partition → uncoarsen+refine), whose output
	// lands inside the exact carve window. The V-cycle's finest level is
	// the carve state itself, the source at depth 0 and a remainder
	// below, so its assignment is the state's; its coarser levels are
	// contracted from the state's arrays. The V-cycle refines that
	// finest level with plain FM before it returns, so the
	// replication-FM run below refines it a second time, its first
	// plain pass repeating the V-cycle's last. A V-cycle failure (e.g.
	// no feasible coarsest assignment) falls back to the flat seed
	// rather than rejecting the carve.
	flatSeed := true
	if opts.Multilevel && st.NumCells() >= opts.MultilevelMinCells {
		ml, mlErr := sc.ml.Run(st, multilevel.Config{Config: cfg, TargetArea: target, PinExternal: pinTerminals})
		if mlErr == nil {
			sc.assign = append(sc.assign[:0], ml.Assign...)
			flatSeed = false
		}
	}
	if flatSeed {
		sc.assign = sc.cluster.Assign(sc.assign, st, seed, target)
	}
	if err = st.ResetPinned(sc.assign, pinTerminals); err != nil {
		return fm.Result{}, st.Stats(), err
	}
	before = st.Stats()
	res, err = sc.fm.Run(st, cfg)
	if err != nil {
		return fm.Result{}, before, err
	}
	return res, before, nil
}

// reseed returns r reset to the stream rand.New(rand.NewSource(seed))
// yields, allocating a generator only when r is nil.
func reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}
