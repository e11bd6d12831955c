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
// terminal constraint, materialize both sides as independent
// subcircuits (cut nets become terminals; replicas become real cells),
// and recurse on the remainder. Repeating this with randomized seeds,
// device choices and fill targets yields many feasible k-way
// solutions; the best under the lexicographic objective is returned.
package kway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

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
	// search performs (carves, V-cycle levels, pair refinement):
	// values >= 2 use fm's deterministic parallel sub-round engine,
	// fanning proposals out over min(RefineWorkers, GOMAXPROCS)
	// goroutines; 0 or 1 keep the classic serial engine,
	// byte-identical to previous releases.
	// Either way fixed-seed results are independent of Workers and
	// GOMAXPROCS.
	RefineWorkers int
	// Multilevel routes large carve subproblems through the
	// internal/multilevel V-cycle: the carve's initial assignment is
	// produced by coarsen → partition → uncoarsen+refine instead of a
	// single cluster-grown seed, and the usual replication-FM run then
	// acts as the finest-level refinement pass. Off by default; the
	// flat path is byte-identical to the pre-multilevel engine (see
	// TestFlatPathGolden).
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
	// coverage, single producer, IOB span accounting) and every
	// feasible k-way solution is run through the full partition
	// verifier before it competes for best. Violations abort the search
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
	// Board, when non-nil, switches the search to the hop-weighted
	// interconnect objective over the board's device-slot topology
	// (internal/topology): part i occupies board slot i, every carve's
	// FM run is weighted by the marginal Steiner-span cost of each net
	// (replication.SetNetWeights), folded solutions are scored by their
	// hop-weighted interconnect (Summary.TopoCost, a lexicographic
	// tie-breaker between device cost and IOB utilization), and
	// solutions that exceed the board's slot count or any link's
	// routing capacity are rejected (verify.Routing). Nil keeps the
	// paper's flat terminal-cut engine (TestFlatPathGolden);
	// TestBoardPathGolden pins the board path.
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
	// "carve", "solution" or "refine".
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
	// Replicas is the number of replica cell instances ("$r" copies)
	// materialized into this part.
	Replicas int
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
// coverage, single-producer replication and IOB span accounting.
func (r Result) Verify(src *hypergraph.Graph) error {
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
// with none, the error wraps *search.ErrBudget.
func PartitionContext(ctx context.Context, g *hypergraph.Graph, opts Options) (Result, error) {
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
	newAttempt := func(o Options) search.AttemptFunc[Result] {
		// Per-worker scratch: the FM runner's gain buckets, the
		// cluster-growing buffers, the replication state and the
		// remainders' storage are all reused across carve attempts and
		// solution attempts, so a warm worker allocates mainly for the
		// parts it materializes.
		var sc carveScratch
		return func(ctx context.Context, attempt int, seed int64) (Result, error) {
			// A panic can leave the reused scratch (gain buckets,
			// replication state, the V-cycle's runner) mid-update; drop
			// all of it so the worker's next attempt rebuilds from clean
			// buffers, then let the search pool's containment turn the
			// panic into a degraded attempt. Nothing below recovers: a
			// panic in one V-cycle start costs the whole attempt.
			defer func() {
				if v := recover(); v != nil {
					sc = carveScratch{}
					panic(v)
				}
			}()
			// The search pool hands each attempt its own span scope
			// (and its sink) through the context; engine spans
			// (fm-pass, level, …) nest under it via the options copy.
			if scope := span.FromContext(ctx); scope.Enabled() {
				o.Spans = scope
			}
			parts, tr, err := partitionOnce(ctx, g, o, attempt, seed, &sc)
			if err != nil {
				return Result{}, err
			}
			foldSpan := o.Spans.Start("fold", attempt)
			remapDevices(parts, o.Library)
			res := assemble(g, parts)
			if tr != nil {
				res.Summary.TopoCost = tr.cost()
				res.Summary.HasTopo = true
				// Routing post-check: a solution whose routed net load
				// overflows a board link is infeasible on this board —
				// the attempt folds as failed and the search retries.
				graphs := make([]*hypergraph.Graph, len(parts))
				for i := range parts {
					graphs[i] = parts[i].Graph
				}
				if rerr := verify.Routing(tr.board, graphs); rerr != nil {
					foldSpan.End()
					return Result{}, fmt.Errorf("kway: board %s: %w", tr.board.Name, rerr)
				}
			}
			foldSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseFold})
			if o.Verify {
				verifySpan := o.Spans.Start("verify", attempt)
				if verr := res.Verify(g); verr != nil {
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
		area := parts[i].Graph.TotalArea()
		terms := parts[i].Graph.NumTerminals()
		if d, ok := lib.CheapestFit(area, terms); ok && d.Price < parts[i].Device.Price {
			parts[i].Device = d
		}
	}
}

func assemble(g *hypergraph.Graph, parts []Part) Result {
	res := Result{Parts: parts, SourceCells: g.NumCells()}
	for _, p := range parts {
		res.Summary.Parts = append(res.Summary.Parts, metrics.Part{
			Device:          p.Device,
			CLBs:            p.Graph.TotalArea(),
			Terminals:       p.Graph.NumTerminals(),
			Cells:           p.Graph.NumCells(),
			ReplicatedCells: p.Replicas,
		})
	}
	return res
}

// carveScratch bundles the per-worker reusable buffers: the
// cluster-assignment scratch, the assignment buffer and the V-cycle's
// runner, whose replication state and FM runner every carve FM run
// uses too. Carve retries on the same subcircuit reset the state; a
// carve of a new subcircuit rebinds it (a V-cycle leaves it bound to
// the subcircuit, so the carve's own run only resets it), and the
// arrays of every layer keep their capacity across carves and
// attempts.
//
// The two rest arenas hold the remainders an attempt carves again.
// Each such remainder is built into the arena not holding the
// subcircuit it was carved from, which is dead once the carve is
// accepted; built[i] is the graph rests[i] holds. Parts never live in
// arena storage: a carved block, or a remainder that already fits a
// device, is built in the parts arena and detached from it, since it
// outlives the attempt. specs and specOuts hold the instance lists
// each materialization extracts from.
type carveScratch struct {
	cluster  fm.ClusterScratch
	assign   []replication.Block
	ml       multilevel.Runner
	rests    [2]hypergraph.Arena
	built    [2]*hypergraph.Graph
	parts    hypergraph.Arena
	specs    []hypergraph.InstanceSpec
	specOuts []int
}

// slotTracker maintains the board-slot placement of one solution
// attempt on a board: the recursive carve produces parts in index order
// and part i occupies board slot i, so spans accumulates, per source
// net name, the set of slots already hosting the net. During a carve of
// the remainder the carved block is headed for slot s0 = len(parts) and
// the rest is anchored (greedily) at the next slot s0+1; carveWeights
// turns each net's placed span into a NetWeights triple for the FM run.
// nil tracker = flat terminal-cut engine.
type slotTracker struct {
	board     *topology.Board
	spans     map[string]topology.SlotSet
	weightBuf []replication.NetWeights
}

func newSlotTracker(b *topology.Board) *slotTracker {
	if b == nil {
		return nil
	}
	return &slotTracker{board: b, spans: make(map[string]topology.SlotSet)}
}

// place records a finished part occupying slot: every net of the part
// now touches it.
func (tr *slotTracker) place(g *hypergraph.Graph, slot int) {
	for ni := range g.Nets {
		name := g.Nets[ni].Name
		tr.spans[name] = tr.spans[name].Add(slot)
	}
}

// carveWeights derives the per-net weight table for a carve of sub
// between slot s0 (the carved block) and anchor s1 (the remainder).
// For a net with already-placed span S:
//
//	Alone[0] = SpanCost(S∪{s0}) − SpanCost(S)     net stays only in the part
//	Alone[1] = SpanCost(S∪{s1}) − SpanCost(S)     net stays only in the rest
//	Both     = SpanCost(S∪{s0,s1}) − SpanCost(S)  net is cut at this carve
//
// so an FM run minimizing the weighted sum minimizes the final
// hop-weighted interconnect, greedily over the carve sequence. Nets
// with an empty span and no cut cost nothing, exactly like the flat
// objective; on a crossbar the table degenerates to {1,1,2}-style
// constants and FM reduces to cut minimization with a per-net offset.
func (tr *slotTracker) carveWeights(sub *hypergraph.Graph, s0, s1 int) []replication.NetWeights {
	w := tr.weightBuf[:0]
	for ni := range sub.Nets {
		span := tr.spans[sub.Nets[ni].Name]
		base := tr.board.SpanCost(span)
		w = append(w, replication.NetWeights{
			Alone: [2]int32{
				int32(tr.board.SpanCost(span.Add(s0)) - base),
				int32(tr.board.SpanCost(span.Add(s1)) - base),
			},
			Both: int32(tr.board.SpanCost(span.Add(s0).Add(s1)) - base),
		})
	}
	tr.weightBuf = w
	return w
}

// cost is the solution's hop-weighted interconnect: the board's span
// cost summed over every net (integer sum — order-independent, so the
// map iteration is safe).
func (tr *slotTracker) cost() int {
	total := 0
	for _, span := range tr.spans {
		total += tr.board.SpanCost(span)
	}
	return total
}

// partitionOnce builds one complete k-way solution or fails. The
// returned tracker is nil unless a board is set.
func partitionOnce(ctx context.Context, g *hypergraph.Graph, opts Options, attempt int, seed int64, sc *carveScratch) ([]Part, *slotTracker, error) {
	r := rand.New(rand.NewSource(seed))
	tr := newSlotTracker(opts.Board)
	queue := []*hypergraph.Graph{g}
	var parts []Part
	guard := 0
	// hint is the carve-size goal on which the attempt's latest carve
	// accepted under terminal pressure settled (0: none yet); see
	// carve.
	hint := 0
	for len(queue) > 0 {
		// Deterministic cancellation checkpoint: the budget is observed
		// only between carves, never inside FM, so every completed
		// attempt is bit-identical with or without a deadline armed.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		guard++
		if guard > 4*g.NumCells()+64 {
			return nil, nil, fmt.Errorf("kway: recursion guard tripped (seed %d)", seed)
		}
		sub := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		if dev, ok := opts.Library.CheapestFit(sub.TotalArea(), sub.NumTerminals()); ok {
			if tr != nil {
				if len(parts) >= tr.board.Slots {
					return nil, nil, fmt.Errorf("kway: solution needs more than board %s's %d slots (seed %d)", tr.board.Name, tr.board.Slots, seed)
				}
				tr.place(sub, len(parts))
			}
			parts = append(parts, Part{Graph: sub, Device: dev, Replicas: countReplicas(sub)})
			continue
		}
		carved, rest, dev, err := carve(ctx, sub, opts, attempt, seed, r, sc, tr, len(parts), &hint)
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			tr.place(carved, len(parts))
		}
		parts = append(parts, Part{Graph: carved, Device: dev, Replicas: countReplicas(carved)})
		queue = append(queue, rest)
	}
	return parts, tr, nil
}

// scratchStats snapshots the replication-state counters when the
// scratch state is bound to sub (zero otherwise, as a rebind to sub
// starts from zero); deltas between two snapshots attribute the state's
// cumulative work to one carve try.
func scratchStats(sc *carveScratch, sub *hypergraph.Graph) replication.Stats {
	if st := sc.ml.State(); st.Graph() == sub {
		return st.Stats()
	}
	return replication.Stats{}
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

// carve splits off one device-sized block from sub. It tries several
// (device, fill, seed) combinations and returns the first whose carved
// block satisfies its host device's terminal constraint. seed is the
// enclosing attempt's seed, used only to label injected faults. With a
// board tracker armed, the carved block is headed for slot s0 and the
// remainder anchored at s0+1; every FM run of the carve then minimizes
// the marginal hop-weighted span instead of the flat cut.
//
// hint carries the carve-size goal across one attempt's carves: a
// carve starts from min(*hint, maxFit) instead of maxFit, and a carve
// accepted after a terminal rejection stores its final goal in *hint.
// The remainder's terminal density barely moves between carves, so
// the next carve skips the rejections that shrank this one. The
// terminal objective is not carried over: every carve starts on the
// cut and switches to t_P0 at its own first rejection.
func carve(ctx context.Context, sub *hypergraph.Graph, opts Options, attempt int, seed int64, r *rand.Rand, sc *carveScratch, tr *slotTracker, s0 int, hint *int) (carved, rest *hypergraph.Graph, dev library.Device, err error) {
	var weights []replication.NetWeights
	if tr != nil {
		// The remainder is non-empty (otherwise the subcircuit would
		// have fitted a device), so the solution needs at least one
		// slot beyond s0.
		if s0+1 >= tr.board.Slots {
			return nil, nil, library.Device{}, fmt.Errorf("kway: carve into slot %d needs a remainder slot but board %s has %d", s0, tr.board.Name, tr.board.Slots)
		}
		weights = tr.carveWeights(sub, s0, s0+1)
	}
	total := sub.TotalArea()
	devices := opts.Library.Devices
	var lastErr error
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
		// Deterministic cancellation checkpoint, mirroring the one at
		// the carve-queue boundary.
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, library.Device{}, cerr
		}
		// Carve-site fault hook: an injected error abandons the whole
		// solution attempt (it folds as a failed attempt), an injected
		// panic is contained one level up, a delay just stalls the try.
		if opts.Inject != nil {
			if ferr := opts.Inject.At(faultinject.SiteCarve, attempt, try, seed); ferr != nil {
				return nil, nil, library.Device{}, ferr
			}
		}
		density := float64(sub.NumTerminals()) / float64(total)
		desired := int((0.85 + 0.15*r.Float64()) * float64(want))
		if desired >= total {
			desired = total - 1
		}
		if desired < 1 {
			desired = 1
		}
		d, ok := pickDevice(devices, total, desired, density, r, try)
		if !ok {
			lastErr = fmt.Errorf("kway: no device can carve %d CLBs from %d", desired, total)
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
		if target < d.MinCLBs() {
			lastErr = fmt.Errorf("kway: device %s cannot carve from %d CLBs", d.Name, total)
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectDeviceWindow, d.Name, target, 0, fm.Result{}, replication.Stats{})
			continue
		}
		st, res, before, cerr := carveFM(sub, d, target, total, opts, attempt, r.Int63(), termPressure, sc, weights)
		if cerr != nil {
			lastErr = cerr
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectFM, d.Name, target, 0, fm.Result{}, scratchStats(sc, sub).Sub(before))
			continue
		}
		delta := st.Stats().Sub(before)
		if terms := st.Terminals(0); terms > d.IOBs {
			lastErr = fmt.Errorf("kway: carve for %s needs %d terminals > %d", d.Name, terms, d.IOBs)
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
		if st.Area(0) < d.MinCLBs() || st.Area(0) > d.MaxCLBs() {
			lastErr = fmt.Errorf("kway: carve area %d outside device %s window", st.Area(0), d.Name)
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectAreaWindow, d.Name, st.Area(0), st.Terminals(0), res, delta)
			continue
		}
		c, rst, merr := materialize(sub, st, opts.Library, sc)
		if merr != nil {
			lastErr = merr
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectMaterialize, d.Name, st.Area(0), st.Terminals(0), res, delta)
			continue
		}
		if rst.TotalArea() >= total {
			lastErr = fmt.Errorf("kway: carve made no progress (replication blow-up)")
			emitCarve(&opts, attempt, trace.KindCarveRejected, trace.RejectNoProgress, d.Name, st.Area(0), st.Terminals(0), res, delta)
			continue
		}
		if opts.Verify {
			// materialize chose the remainder's storage by whether the
			// state's block 1 fits a device; partitionOnce decides from
			// the built graph, so the two must agree.
			if a, t := rst.TotalArea(), rst.NumTerminals(); a != st.Area(1) || t != st.Terminals(1) {
				verr := fmt.Errorf("remainder has %d CLBs and %d terminals, state block 1 has %d and %d", a, t, st.Area(1), st.Terminals(1))
				return nil, nil, library.Device{}, &VerificationError{Stage: "carve", Err: verr}
			}
			if verr := st.CheckInvariants(); verr != nil {
				return nil, nil, library.Device{}, &VerificationError{Stage: "carve-state", Err: verr}
			}
			if verr := verify.Split(sub, c, rst); verr != nil {
				return nil, nil, library.Device{}, &VerificationError{Stage: "carve", Err: verr}
			}
		}
		emitCarve(&opts, attempt, trace.KindCarveAccepted, "", d.Name, st.Area(0), st.Terminals(0), res, delta)
		if termPressure {
			*hint = want
		}
		return c, rst, d, nil
	}
	return nil, nil, library.Device{}, fmt.Errorf("kway: all carve attempts failed: %w", lastErr)
}

// pickDevice selects a host device for a carve of roughly `desired`
// CLBs: candidates must have a utilization window admitting the
// desired size (with slack), with a bias toward the largest (cheapest
// per CLB). Early attempts also filter by terminal pressure — devices
// whose IOB count cannot plausibly cover a carve at the subcircuit's
// terminal density are excluded.
func pickDevice(devices []library.Device, totalArea, desired int, density float64, r *rand.Rand, attempt int) (library.Device, bool) {
	var cand []library.Device
	for _, d := range devices {
		if d.MinCLBs() >= totalArea || d.MinCLBs() > desired {
			continue
		}
		size := desired
		if m := d.MaxCLBs(); size > m {
			size = m
		}
		if attempt < 2 && float64(d.IOBs) < density*float64(size)*0.8 {
			continue
		}
		cand = append(cand, d)
	}
	if len(cand) == 0 {
		for _, d := range devices {
			if d.MinCLBs() < totalArea && d.MinCLBs() <= desired {
				cand = append(cand, d)
			}
		}
	}
	if len(cand) == 0 {
		return library.Device{}, false
	}
	// Geometric bias toward the tail (largest candidate).
	idx := len(cand) - 1
	for idx > 0 && r.Float64() < 0.35+0.1*float64(attempt%3) {
		idx--
	}
	return cand[idx], true
}

// carveFM runs (replication-)FM with asymmetric bounds: block 0 must
// land in the device's utilization window, block 1 holds the rest.
// With pinTerminals, the FM objective becomes t_P0 instead of the cut.
// A non-nil weights table switches the run to the weighted topology
// objective (replication.SetNetWeights). before is the scratch state's
// stats snapshot (scratchStats) taken after the V-cycle, which works on
// the same state: the carve's own work is the state's stats less it.
func carveFM(sub *hypergraph.Graph, d library.Device, target, total int, opts Options, attempt int, seed int64, pinTerminals bool, sc *carveScratch, weights []replication.NetWeights) (st *replication.State, res fm.Result, before replication.Stats, err error) {
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
	cfg := fm.Config{
		MinArea:       [2]int{minCarve, 0},
		MaxArea:       [2]int{d.MaxCLBs(), total - minCarve},
		Threshold:     opts.threshold,
		RefineWorkers: opts.RefineWorkers,
		Seed:          seed,
		TraceAttempt:  attempt,
		Spans:         opts.Spans,
		Inject:        opts.Inject,
	}
	// The initial assignment: flat cluster growth by default; behind
	// Options.Multilevel, large subcircuits go through the V-cycle
	// (coarsen → coarsest partition → uncoarsen+refine), whose output
	// lands inside the exact carve window. The replication-FM run
	// below is then the finest-level refinement pass. A V-cycle
	// failure (e.g. no feasible coarsest assignment) falls back to the
	// flat seed rather than rejecting the carve.
	flatSeed := true
	if opts.Multilevel && sub.NumCells() >= opts.MultilevelMinCells {
		mlCfg := multilevel.Config{Config: cfg, TargetArea: target, PinExternal: pinTerminals}
		if weights != nil {
			// Contraction preserves net names, so the V-cycle threads
			// the carve's weight table to every level by name.
			mlCfg.NetWeights = netWeightsByName(sub, weights)
		}
		ml, mlErr := sc.ml.Run(sub, mlCfg)
		if mlErr == nil {
			sc.assign = append(sc.assign[:0], ml.Assign...)
			flatSeed = false
		}
	}
	if flatSeed {
		sc.assign = sc.cluster.AssignInto(sc.assign, sub, seed, -1, target)
	}
	// A retry on the same subcircuit, or a carve after a V-cycle, resets
	// the state to the fresh assignment; a new subcircuit rebinds it.
	// Both reuse its arrays.
	before = scratchStats(sc, sub)
	st = sc.ml.State()
	if st.Graph() == sub {
		err = st.ResetPinned(sc.assign, pinTerminals)
	} else {
		err = st.Rebind(sub, sc.assign, pinTerminals)
	}
	if err != nil {
		*st = replication.State{}
		return nil, fm.Result{}, before, err
	}
	// Install (or clear) the carve's net weight table. The flat path
	// never enters this branch — weights are always nil and the scratch
	// state never carries a table — so its byte-identity is structural.
	if weights != nil || st.Weighted() {
		if err := st.SetNetWeights(weights); err != nil {
			return nil, fm.Result{}, before, err
		}
	}
	if st.Area(0) > cfg.MaxArea[0] || st.Area(0) < cfg.MinArea[0] {
		return nil, fm.Result{}, before, fmt.Errorf("kway: initial carve area %d outside [%d,%d]", st.Area(0), cfg.MinArea[0], cfg.MaxArea[0])
	}
	res, err = sc.ml.FM().Run(st, cfg)
	if err != nil {
		return nil, fm.Result{}, before, err
	}
	return st, res, before, nil
}

// netWeightsByName indexes a carve's weight table by net name, the
// form the multilevel V-cycle threads through its coarse levels.
func netWeightsByName(sub *hypergraph.Graph, w []replication.NetWeights) map[string]replication.NetWeights {
	m := make(map[string]replication.NetWeights, len(w))
	for ni := range w {
		m[sub.Nets[ni].Name] = w[ni]
	}
	return m
}

// materialize splits the bipartitioned state into two standalone
// subcircuits. The carved block gets storage of its own, and so does a
// remainder that fits a device; a remainder that will be carved again
// is built into the rest arena not holding sub (carveScratch).
func materialize(sub *hypergraph.Graph, st *replication.State, lib library.Library, sc *carveScratch) (*hypergraph.Graph, *hypergraph.Graph, error) {
	cut := func(n hypergraph.NetID) bool { return st.CutNet(n) }
	sc.specs, sc.specOuts = st.InstanceSpecsInto(0, sc.specs, sc.specOuts)
	a, err := sub.SubcircuitIn(&sc.parts, sub.Name+".0", sc.specs, cut)
	sc.parts.Detach()
	if err != nil {
		return nil, nil, err
	}
	sc.specs, sc.specOuts = st.InstanceSpecsInto(1, sc.specs, sc.specOuts)
	var b *hypergraph.Graph
	if _, fits := lib.CheapestFit(st.Area(1), st.Terminals(1)); fits {
		b, err = sub.SubcircuitIn(&sc.parts, sub.Name+".1", sc.specs, cut)
		sc.parts.Detach()
	} else {
		i := 0
		if sc.built[0] == sub {
			i = 1
		}
		b, err = sub.SubcircuitIn(&sc.rests[i], sub.Name+".1", sc.specs, cut)
		sc.built[i] = b
	}
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// countReplicas counts replica instances. Replicas are tagged
// structurally (hypergraph.Cell.Replica, set at materialization and
// inherited through nested subcircuit extraction), so this never parses
// the "$r" name suffixes — those remain purely for name uniqueness and
// the verifier's name-based source resolution.
func countReplicas(g *hypergraph.Graph) int {
	n := 0
	for i := range g.Cells {
		if g.Cells[i].Replica {
			n++
		}
	}
	return n
}
