// Package fm implements the Fiduccia–Mattheyses min-cut bipartitioning
// heuristic [15] and its extension with functional replication
// (Kužnar et al., DAC'94, Section III.D). A pass repeatedly applies
// the best feasible candidate move — single cell move, functional
// replication with the best output split, or unreplication — locking
// each cell after it participates once, and finally rolls back to the
// best prefix; it stops as soon as no later prefix can beat that best
// (replication.ObjectiveFloor).
//
// The package has two pass algorithms over the same move universe and
// one phase schedule (runPhases) that repeats passes until they yield
// no improvement. Config.RefineWorkers and the state's cell count
// select the pass: the serial gain-bucket pass in this file, or the
// deterministic parallel sub-round pass (parallel.go) on states large
// enough for its proposal scans to fan out. Runner.Run validates the
// configuration once, before it chooses.
//
// The serial gain buckets are the classic intrusive doubly-linked
// structure: every candidate move of every cell owns a fixed slot in a
// node pool sized once per layout, and bucket membership is a head
// pointer per gain value plus prev/next links in the nodes. Removal and
// reinsertion are O(1), the buckets never hold stale entries, and a
// steady-state pass performs no heap allocations (see TestFMPassAllocs).
package fm

import (
	"fmt"
	"math/rand"
	"slices"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
)

// NoReplication disables replication moves when used as the Threshold.
const NoReplication = -1

// Config controls one bipartitioning run. It is the one declaration of
// the FM run settings: the k-way carve builds it, and the multilevel
// V-cycle embeds it as the configuration of its finest level.
type Config struct {
	// MinArea/MaxArea bound the active cell area of each block; a move
	// is feasible only if both blocks stay within bounds afterwards.
	// Run rejects MaxArea <= 0, negative MinArea and an initial state
	// outside the bounds, with the same error for both engines.
	MinArea [2]int
	MaxArea [2]int
	// Threshold is the replication potential threshold T (Eq. 6):
	// multi-output cells with ψ ≥ T may replicate. NoReplication (-1)
	// disables replication entirely (plain FM).
	Threshold int
	// MaxPasses caps the passes of one phase and, separately, the
	// number of plain/replication-only rounds (default 24; see
	// runPhases), so a run makes at most 2·MaxPasses² passes.
	MaxPasses int
	// RefineWorkers selects the refinement engine. Values >= 2 run the
	// deterministic parallel sub-round engine (parallel.go) on states
	// of at least minParallel cells, fanning its proposal scans
	// out over min(RefineWorkers, GOMAXPROCS) goroutines; a smaller
	// state takes the serial engine exactly as at RefineWorkers 0,
	// because its scans could not fan out. 0 or 1 always run the
	// classic serial engine. The choice depends on the cell count
	// alone, so the partition is identical for every RefineWorkers
	// value >= 2 and independent of GOMAXPROCS; the parallel engine's
	// passes differ from the serial engine's, so on large states the
	// two classes reach different (equally valid) partitions from the
	// same seed.
	RefineWorkers int
	// Seed orders the serial engine's candidate insertion for
	// tie-breaking, on every run that takes the serial engine, and
	// labels fault-plan lookups. The parallel engine is seed-free —
	// proposals are exhaustive per cell and the commit order is (gain,
	// recency) — so there diversity across attempts comes from the
	// seeded initial assignment alone.
	Seed int64
	// TraceAttempt labels spans and events with the enclosing solution
	// attempt index; use -1 for standalone runs.
	TraceAttempt int
	// Spans, when armed, times every pass as a span in the enclosing
	// attempt's trace: "fm-pass" for the serial engine (whatever
	// RefineWorkers is), "parfm-pass" for the parallel one. With a sink
	// on the scope, each pass span ends with a KindFMPass event and
	// every parallel sub-round sends a KindParRound event. The disarmed
	// zero value costs a single predicted branch per pass, keeping the
	// steady-state pass allocation-free (see TestFMPassAllocs,
	// TestParFMPassAllocs). Span clock readings feed only the trace,
	// never search decisions.
	Spans span.Scope
	// Inject, when non-nil, consults the fault plan before every pass
	// the run executes (faultinject.SitePass, ordinal = passes run so
	// far, labeled with TraceAttempt). Testing only; nil in production
	// keeps the pass loop allocation-free.
	Inject *faultinject.Plan
}

func (c Config) withDefaults() Config {
	if c.MaxPasses == 0 {
		c.MaxPasses = 24
	}
	return c
}

// admits reports whether block areas a0 and a1 lie within the bounds.
func (c *Config) admits(a0, a1 int) bool {
	return a0 >= c.MinArea[0] && a0 <= c.MaxArea[0] &&
		a1 >= c.MinArea[1] && a1 <= c.MaxArea[1]
}

// admitsMove reports whether the block areas after move m lie within
// the bounds. m must be valid on st, as every bucketed candidate of
// both engines is, so the area change follows from the move kind, the
// cell's home block and its area without re-validating m: a single
// move shifts the area across, a replica adds it to the other block,
// an unreplication drops it from the side it leaves.
func (c *Config) admitsMove(st *replication.State, m replication.Move) bool {
	a := st.CellArea(m.Cell)
	var d [2]int
	switch h := st.Home(m.Cell); m.Kind {
	case replication.SingleMove:
		d[h], d[h.Other()] = -a, a
	case replication.Replicate:
		d[h.Other()] = a
	case replication.Unreplicate:
		d[m.To.Other()] = -a
	}
	return c.admits(st.Area(0)+d[0], st.Area(1)+d[1])
}

// Result summarizes a run.
type Result struct {
	Cut int // final cut size
	// Passes counts the passes run; passes the phase schedule skips as
	// provably dry (see runPhases) are not counted.
	Passes int
	// Moves counts the moves applied across all passes, before
	// rollbacks. A pass of either engine stops once its objective floor
	// reaches its best prefix, so it counts only the moves applied
	// before then.
	Moves int
}

const nilNode = int32(-1)

// node is one candidate move's slot in the gain-bucket pool. A node is
// in a bucket iff bucket >= 0; prev/next link it into that bucket's
// doubly-linked list (prev == nilNode at the head).
type node struct {
	move   replication.Move
	prev   int32
	next   int32
	bucket int32
}

// layout identifies the cell set a set of per-cell buffers was laid
// out for (replication.State.Layout), and its gain bound. Both engines
// key their buffers on it and lay them out again only when it changes,
// into the capacity of earlier layouts — which is what keeps the k-way
// partitioner's carve loop allocation-free after warm-up. A rebound or
// re-targeted state (replication.State.Rebind, Retarget) gets a new
// layout under the engine, and so does its split table: a narrowed
// cell can lose its split slots.
type layout struct {
	id     uint64
	gainOf int // bucket offset = max |gain| (st.MaxCellDegree)
}

// relayout reports whether buffers keyed on l must be laid out again
// for st, and if so re-keys l to st's layout and gain bound.
func (l *layout) relayout(st *replication.State) bool {
	if l.id == st.Layout() && l.gainOf == st.MaxCellDegree() {
		return false
	}
	l.id, l.gainOf = st.Layout(), st.MaxCellDegree()
	return true
}

// engine holds the serial engine's per-run mutable state. The pool/base
// slot layout and bucket head array are graph-derived (see bind).
type engine struct {
	layout
	st       *replication.State
	cfg      Config
	pool     []node
	base     []int32 // per cell: first pool slot; base[n] = len(pool)
	head     []int32 // per bucket: first node, nilNode when empty
	maxPtr   int
	locked   []bool
	order    []hypergraph.CellID
	scratch  []hypergraph.CellID
	best     replication.Checkpoint     // per-pass best-prefix snapshot
	floor    replication.ObjectiveFloor // per-pass cut lower bound
	gains    [replication.MaxSplits]int
	replOnly bool

	// splitsFor is the replication threshold the split slots were laid
	// out for: part of the layout key (see bind).
	splitsFor int
}

// Per-cell slot layout (see bind): single-output cells get one slot
// (the single move); multi-output cells additionally get the two
// unreplication merges and, when the run's threshold lets them
// replicate, one slot per candidate carry mask.
const (
	slotSingle = 0
	slotUnrep0 = 1
	slotUnrep1 = 2
	slotSplit0 = 3
)

// Runner executes FM runs with either engine, reusing each engine's
// per-graph buffers across runs. A zero Runner is ready to use; a
// Runner is not safe for concurrent use.
type Runner struct {
	e   engine
	par parEngine
	rnd *rand.Rand // reseeded per run
}

// bind points the engine at a state for a run at the given replication
// threshold, laying the slot layout out again only when the layout key
// or the threshold changed (see layout). Only cells the threshold lets
// replicate get split slots, so a plain run — every V-cycle level is
// one — lays out none: a pass's threshold is NoReplication or the
// run's (see runPhases), so no other split is ever inserted. Every
// multi-output cell keeps its unreplication slots, since the state may
// carry replicas from an earlier run.
func (e *engine) bind(st *replication.State, threshold int) {
	e.st = st
	if !e.relayout(st) && e.splitsFor == threshold {
		return
	}
	e.splitsFor = threshold
	n := st.NumCells()
	buckets := 2*e.gainOf + 1
	e.head = slices.Grow(e.head[:0], buckets)[:buckets]
	e.base = slices.Grow(e.base[:0], n+1)[:n+1]
	slots := 0
	for ci := 0; ci < n; ci++ {
		e.base[ci] = int32(slots)
		slots += e.slots(hypergraph.CellID(ci))
	}
	e.base[n] = int32(slots)
	e.pool = slices.Grow(e.pool[:0], slots)[:slots]
	for ci := 0; ci < n; ci++ {
		c := hypergraph.CellID(ci)
		b := e.base[ci]
		e.pool[b+slotSingle] = node{move: replication.Move{Cell: c, Kind: replication.SingleMove}, bucket: nilNode}
		if st.NumOutputs(c) > 1 {
			e.pool[b+slotUnrep0] = node{move: replication.Move{Cell: c, Kind: replication.Unreplicate, To: 0}, bucket: nilNode}
			e.pool[b+slotUnrep1] = node{move: replication.Move{Cell: c, Kind: replication.Unreplicate, To: 1}, bucket: nilNode}
			if e.base[ci+1] == b+slotSplit0 {
				continue // no split slots at this threshold
			}
			for i, carry := range st.Splits(c) {
				e.pool[b+slotSplit0+int32(i)] = node{move: replication.Move{Cell: c, Kind: replication.Replicate, Carry: carry}, bucket: nilNode}
			}
		}
	}
	e.locked = slices.Grow(e.locked[:0], n)[:n]
	e.order = slices.Grow(e.order[:0], n)[:n]
}

// slots returns the number of pool slots bind lays out for cell c.
func (e *engine) slots(c hypergraph.CellID) int {
	switch {
	case e.st.NumOutputs(c) <= 1:
		return 1
	case e.splitsFor == NoReplication || !e.st.CanReplicate(c, e.splitsFor):
		return slotSplit0
	}
	return slotSplit0 + len(e.st.Splits(c))
}

// Run improves the bipartition state in place and returns the result,
// reusing buffers from previous runs (see layout). The state may
// contain replicated cells from previous runs; they are kept and remain
// subject to unreplication moves.
//
// Both engines run plain FM passes to convergence, then (when
// replication is enabled) phases that also offer replication and
// unreplication moves, refining the converged min-cut solution — the
// paper extends the original min-cut algorithm [15] this way, and each
// pass's best-prefix rollback guarantees they never worsen the cut. A
// fault injected at a pass boundary aborts the run with its typed error
// (panic faults propagate to the search layer's containment).
//
// A state below minParallel cells takes the serial engine whatever
// RefineWorkers is (see Config.RefineWorkers).
func (r *Runner) Run(st *replication.State, cfg Config) (Result, error) {
	return r.run(st, cfg, cfg.RefineWorkers >= 2 && st.NumCells() >= minParallel)
}

// run validates cfg and refines st on the parallel engine when
// parallel is set, else on the serial one.
func (r *Runner) run(st *replication.State, cfg Config, parallel bool) (Result, error) {
	cfg, err := cfg.validate(st)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if parallel {
		res.Passes, res.Moves, err = r.par.run(st, cfg)
	} else {
		e := r.start(st, cfg)
		res.Passes, res.Moves, err = runPhases(cfg, "fm-pass", func(_, threshold int, replOnly bool) (bool, int, int) {
			e.cfg.Threshold = threshold
			e.replOnly = replOnly
			return e.pass()
		})
	}
	res.Cut = st.CutSize()
	return res, err
}

// validate returns cfg with its defaults, or the error Run reports for
// a malformed configuration or an initial state outside its bounds.
func (c Config) validate(st *replication.State) (Config, error) {
	c = c.withDefaults()
	if c.MaxArea[0] <= 0 || c.MaxArea[1] <= 0 {
		return c, fmt.Errorf("fm: MaxArea must be positive, got %v", c.MaxArea)
	}
	if c.MinArea[0] < 0 || c.MinArea[1] < 0 {
		return c, fmt.Errorf("fm: MinArea must be non-negative, got %v", c.MinArea)
	}
	for b := 0; b < 2; b++ {
		if st.Area(replication.Block(b)) > c.MaxArea[b] || st.Area(replication.Block(b)) < c.MinArea[b] {
			return c, fmt.Errorf("fm: initial area %d of block %d outside [%d,%d]",
				st.Area(replication.Block(b)), b, c.MinArea[b], c.MaxArea[b])
		}
	}
	return c, nil
}

// start readies the engine for passes on st under cfg: bound to the
// state, with the candidate order shuffled by cfg.Seed.
func (r *Runner) start(st *replication.State, cfg Config) *engine {
	e := &r.e
	e.bind(st, cfg.Threshold)
	e.cfg = cfg
	for i := range e.order {
		e.order[i] = hypergraph.CellID(i)
	}
	r.rnd = reseed(r.rnd, cfg.Seed)
	r.rnd.Shuffle(len(e.order), func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })
	return e
}

// insert links the node at slot into the bucket for gain, at the head
// (LIFO — among equal gains the most recently refreshed candidate is
// preferred, matching classic FM tie-breaking). The gain must be within
// the ±maxDeg bound; a violation is a gain-maintenance bug, not a
// clampable condition.
func (e *engine) insert(slot int32, gain int) {
	idx := gain + e.gainOf
	if idx < 0 || idx >= len(e.head) {
		panic(fmt.Sprintf("fm: gain %d of %v outside bound ±%d", gain, e.pool[slot].move, e.gainOf))
	}
	nd := &e.pool[slot]
	nd.bucket = int32(idx)
	nd.prev = nilNode
	nd.next = e.head[idx]
	if nd.next != nilNode {
		e.pool[nd.next].prev = slot
	}
	e.head[idx] = slot
	if idx > e.maxPtr {
		e.maxPtr = idx
	}
}

// unlink removes the node at slot from its bucket. No-op when the node
// is not in one.
func (e *engine) unlink(slot int32) {
	nd := &e.pool[slot]
	if nd.bucket == nilNode {
		return
	}
	if nd.prev != nilNode {
		e.pool[nd.prev].next = nd.next
	} else {
		e.head[nd.bucket] = nd.next
	}
	if nd.next != nilNode {
		e.pool[nd.next].prev = nd.prev
	}
	nd.bucket = nilNode
}

// removeAll unlinks every candidate node of the cell.
func (e *engine) removeAll(c hypergraph.CellID) {
	e.unlinkRange(e.base[c], e.base[c+1])
}

// relink refreshes the cell's candidate moves: each currently valid one
// is unlinked just before it goes back in with a fresh gain, and every
// other slot is unlinked. A node goes back in at the head of its
// bucket, so where it was no longer matters, and unlinking it leaves
// every other node in the same relative order: the buckets end exactly
// as unlinking all the cell's slots first and then inserting would
// leave them. Single-move gains come from the state's incrementally
// maintained values, replication gains from one SplitGains walk, and
// unreplication gains are evaluated semantically.
func (e *engine) relink(c hypergraph.CellID) {
	b, end := e.base[c], e.base[c+1]
	if e.st.IsReplicated(c) {
		e.unlink(b + slotSingle)
		e.reinsert(b+slotUnrep0, e.st.MustGain(e.pool[b+slotUnrep0].move))
		e.reinsert(b+slotUnrep1, e.st.MustGain(e.pool[b+slotUnrep1].move))
		e.unlinkRange(b+slotSplit0, end)
		return
	}
	if e.replOnly {
		e.unlink(b + slotSingle)
	} else {
		e.reinsert(b+slotSingle, e.st.SingleGain(c))
	}
	if end == b+1 {
		return // single-output cell
	}
	e.unlinkRange(b+slotUnrep0, b+slotSplit0)
	if e.cfg.Threshold == NoReplication || !e.st.CanReplicate(c, e.cfg.Threshold) {
		e.unlinkRange(b+slotSplit0, end)
		return
	}
	for i, g := range e.st.SplitGains(c, e.gains[:]) {
		e.reinsert(b+slotSplit0+int32(i), g)
	}
}

// reinsert moves the node at slot to the head of the bucket for gain.
func (e *engine) reinsert(slot int32, gain int) {
	e.unlink(slot)
	e.insert(slot, gain)
}

// unlinkRange unlinks the nodes at slots [lo, hi).
func (e *engine) unlinkRange(lo, hi int32) {
	for s := lo; s < hi; s++ {
		e.unlink(s)
	}
}

// startPass readies a pass: the state's split-gain table when the pass
// offers replication moves, empty buckets, no locks, and every cell's
// candidates inserted in the shuffled order.
func (e *engine) startPass() {
	if e.cfg.Threshold != NoReplication {
		e.st.PrepareSplitGains()
	}
	for i := range e.head {
		e.head[i] = nilNode
	}
	for i := range e.pool {
		e.pool[i].bucket = nilNode
	}
	e.maxPtr = 0
	for i := range e.locked {
		e.locked[i] = false
	}
	for _, c := range e.order {
		e.relink(c)
	}
}

// pass runs one FM pass and reports whether the cut improved, the
// number of applied moves and the objective after the rollback.
func (e *engine) pass() (bool, int, int) {
	e.startPass()
	startCut := e.st.CutSize()
	bestCut := startCut
	// Best-prefix tracking via full-state snapshots: restoring one is
	// O(cells + nets) flat copies, against per-move undo sweeps over
	// every rolled-back move's neighborhood.
	e.st.SaveCheckpoint(&e.best)
	// What locked cells pin down bounds every later prefix's cut from
	// below. Once that floor reaches bestCut, no later prefix can
	// be strictly better: the pass stops and rolls back to the same
	// best prefix a full pass would.
	e.floor.Reset(e.st)
	moves := 0
	for e.floor.Value() < bestCut {
		mv, ok := e.pop()
		if !ok {
			break
		}
		if _, err := e.st.Apply(mv); err != nil {
			// Buckets hold no stale entries — every node is refreshed
			// when its cell's neighborhood changes — so an apply error
			// here is a bug.
			panic(fmt.Sprintf("fm: applying %v: %v", mv, err))
		}
		moves++
		e.locked[mv.Cell] = true
		e.floor.Lock(mv.Cell)
		e.removeAll(mv.Cell)
		// For single moves the commit delta sweep already visited the
		// exact touched neighborhood; reuse it instead of re-walking
		// the adjacency. Replication moves can touch cells on nets
		// whose counts did not change, so they take the full scan.
		var touched []hypergraph.CellID
		if mv.Kind == replication.SingleMove {
			touched = e.st.LastTouched()
		} else {
			e.scratch = e.st.TouchedCells(mv.Cell, e.scratch)
			touched = e.scratch
		}
		for _, t := range touched {
			if !e.locked[t] {
				e.relink(t)
			}
		}
		if cut := e.st.CutSize(); cut < bestCut {
			bestCut = cut
			e.st.SaveCheckpoint(&e.best)
		}
	}
	if err := e.st.RestoreCheckpoint(&e.best); err != nil {
		panic(fmt.Sprintf("fm: rollback: %v", err))
	}
	return bestCut < startCut, moves, bestCut
}

// pop returns the highest-gain feasible candidate, unlinking it.
// Infeasible candidates encountered on the way are parked (unlinked but
// not discarded permanently): they return to the buckets when their
// cell's neighborhood is next refreshed.
func (e *engine) pop() (replication.Move, bool) {
	for e.maxPtr >= 0 {
		n := e.head[e.maxPtr]
		if n == nilNode {
			e.maxPtr--
			continue
		}
		e.unlink(n)
		if !e.cfg.admitsMove(e.st, e.pool[n].move) {
			continue
		}
		return e.pool[n].move, true
	}
	return replication.Move{}, false
}
