// Package parfm is a deterministic shared-memory parallel variant of
// the FM refinement engine in package fm. It splits each FM pass into
// synchronous sub-rounds:
//
//  1. Propose: workers scan disjoint shards of the candidate cells
//     and, for each, evaluate its best move (single move, functional
//     replication, unreplication — the same move universe as the
//     serial engine) against the state frozen at the start of the
//     sub-round. Gain evaluation only reads the state, so the workers
//     share it without scratch of their own. The first
//     sub-round of a pass proposes every cell; later sub-rounds only
//     re-propose the cells invalidated by the previous sub-round's
//     commits.
//  2. Commit: a single committer keeps the proposals in gain-indexed
//     LIFO bucket lists and applies up to roundCommits of them — each
//     the highest-gain area-feasible proposal at its moment — against
//     the live state. A commit rejects as stale every bucketed
//     proposal whose cell's neighborhood it touched: the cell is
//     unlinked on the spot and re-proposed with a fresh gain next
//     sub-round, so every proposal still in a bucket is exact for the
//     live state. Area-infeasible proposals simply wait (their gain
//     stays exact) for a later sub-round to free area.
//
// Because a proposal is a pure per-cell function of the state it was
// evaluated against and the committer — the only mutator of the
// bucket structure — runs single-threaded in an order fixed by
// (gain, recency), the final partition is identical for every worker
// count and independent of GOMAXPROCS; see DESIGN.md §14 for the full
// determinism argument. Each pass keeps the serial engine's
// best-prefix semantics — the state rolls back to the lowest-cut
// prefix of the commit sequence — and ends when a sub-round commits
// nothing or when stallMoves consecutive commits fail to improve on
// the best cut.
//
// The engine disables the state's incremental gain maintenance
// (replication.State.SetGainMaintenance) for the duration of a run:
// gains are recomputed from scratch during proposal scans — sharded
// across workers — instead of being patched on every neighbor after
// every commit, which is the dominant serial cost of a classic FM
// commit. Best-prefix rollback uses the undo trail (cheap per-move
// sweeps over the usually-short tail past the best prefix) rather
// than the serial engine's full-state checkpoint per improving move —
// the combination is what makes the engine several times faster than
// the serial path per attempt even with a single worker.
//
// Both engines run their passes under one phase schedule, RunPhases.
package parfm

import (
	"fmt"
	"slices"
	"sync"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// NoReplication disables replication moves when used as the Threshold
// (same convention as package fm).
const NoReplication = -1

// Config controls one parallel bipartitioning run. The fields mirror
// fm.Config; Workers sets the proposal parallelism.
type Config struct {
	// MinArea/MaxArea bound the active cell area of each block.
	MinArea [2]int
	MaxArea [2]int
	// Threshold is the replication potential threshold T (Eq. 6);
	// NoReplication (-1) disables replication entirely.
	Threshold int
	// MaxPasses caps the passes of one phase and, separately, the
	// number of plain/replication-only rounds (default 24; see
	// RunPhases), so a run makes at most 2·MaxPasses² passes.
	MaxPasses int
	// Workers is the number of proposal workers (default 1). The final
	// partition is identical for every value; only wall-clock time
	// changes.
	Workers int
	// Seed is accepted for interface symmetry with fm.Config. The
	// sub-round protocol is seed-free — proposals are exhaustive per
	// cell and the commit order is (gain, cell index) — so the seed
	// does not influence the result; diversity across attempts comes
	// from the seeded initial assignment.
	Seed int64
	// TraceAttempt labels spans and events with the enclosing solution
	// attempt; use -1 for standalone runs.
	TraceAttempt int
	// Spans, when armed, times every pass as a "parfm-pass" span in
	// the enclosing attempt's trace. With a sink on the scope, each
	// pass span ends with a KindFMPass event and every sub-round sends
	// a KindParRound event. The disarmed zero value costs a single
	// predicted branch per pass (see TestParFMPassAllocs).
	Spans span.Scope
	// Inject, when non-nil, consults the fault plan at every pass
	// boundary, mirroring the serial engine's injection site.
	Inject *faultinject.Plan
}

func (c Config) withDefaults() Config {
	if c.MaxPasses == 0 {
		c.MaxPasses = 24
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Result summarizes a run.
type Result struct {
	Cut int // final cut size
	// Passes counts the passes run; passes RunPhases skips as provably
	// dry are not counted.
	Passes int
	Moves  int // committed moves across all passes (before rollbacks)
	// Rounds/Proposals/Commits/Stale total the sub-round protocol
	// work: proposals evaluated, proposals applied, and proposals
	// rejected because an earlier commit of the same sub-round
	// invalidated their gain.
	Rounds    int
	Proposals int
	Commits   int
	Stale     int
}

// proposal is one cell's best candidate move, computed against the
// state frozen at the start of a sub-round. The cell is implicit (one
// slot per cell); gain is exact for the frozen state.
type proposal struct {
	carry uint32
	gain  int32
	kind  replication.MoveKind
	to    replication.Block
	valid bool
}

// Runner executes parallel FM runs, reusing per-graph buffers across
// runs. A zero Runner is ready to use; a Runner is not safe for
// concurrent use (its workers are internal to each call).
type Runner struct {
	st  *replication.State
	g   *hypergraph.Graph // graph the per-cell buffers were sized for
	cfg Config

	locked []bool
	prop   []proposal
	// dirty[c] holds the sub-round epoch that last invalidated cell
	// c's proposal; epochs increase monotonically across the whole
	// run, so the array never needs clearing.
	dirty     []int32
	dirtyList []int32 // cells invalidated during the current sub-round
	redo      []int32 // cells to re-propose in the current sub-round
	// The committer keeps pending proposals in gain-indexed bucket
	// lists — the deterministic analogue of the serial engine's LIFO
	// gain buckets. Every bucketed proposal's gain is exact for the
	// live state: a commit that touches a bucketed cell's neighborhood
	// unlinks it on the spot (stale rejection) and queues it for
	// re-proposal next sub-round. Only the committer mutates the
	// structure, so its evolution is a pure function of the commit
	// sequence. bhead is indexed by gain+gainOf; bnext/bprev are the
	// intrusive links (-1 = none); inb marks membership.
	bhead  []int32
	bnext  []int32
	bprev  []int32
	inb    []bool
	curMax int // highest possibly-non-empty bucket index
	epoch  int32

	gainOf   int // gain offset = max |gain| (st.MaxMoveGain)
	replOnly bool
}

// Run is a one-shot convenience around Runner.Run.
func Run(st *replication.State, cfg Config) (Result, error) {
	var r Runner
	return r.Run(st, cfg)
}

// bind points the runner at a state, laying the per-cell buffers out
// again only when the graph (or its gain bound) changed, into the
// capacity of earlier layouts. The buffers are keyed on the graph they
// were sized for: a rebound state (replication.State.Rebind) changes
// the previous state's graph. Every buffer but dirty is rewritten
// before it is read; dirty's epoch stamps restart with the epoch, so
// it is cleared.
func (r *Runner) bind(st *replication.State) {
	n := st.Graph().NumCells()
	if r.g != st.Graph() || r.gainOf != st.MaxMoveGain() {
		r.g = st.Graph()
		r.gainOf = st.MaxMoveGain()
		r.locked = slices.Grow(r.locked[:0], n)[:n]
		r.prop = slices.Grow(r.prop[:0], n)[:n]
		r.dirty = slices.Grow(r.dirty[:0], n)[:n]
		clear(r.dirty)
		buckets := 2*r.gainOf + 2
		r.bhead = slices.Grow(r.bhead[:0], buckets)[:buckets]
		r.bnext = slices.Grow(r.bnext[:0], n)[:n]
		r.bprev = slices.Grow(r.bprev[:0], n)[:n]
		r.inb = slices.Grow(r.inb[:0], n)[:n]
		r.dirtyList = r.dirtyList[:0]
		r.redo = r.redo[:0]
		r.epoch = 0
	}
	r.st = st
}

// Run improves the bipartition state in place and returns the result.
// Like fm.Runner.Run it follows the RunPhases schedule: plain passes to
// convergence, then — when replication is enabled — alternating plain
// and replication-only phases until a full round is dry.
func (r *Runner) Run(st *replication.State, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxArea[0] <= 0 || cfg.MaxArea[1] <= 0 {
		return Result{}, fmt.Errorf("parfm: MaxArea must be positive, got %v", cfg.MaxArea)
	}
	if cfg.MinArea[0] < 0 || cfg.MinArea[1] < 0 {
		return Result{}, fmt.Errorf("parfm: MinArea must be non-negative, got %v", cfg.MinArea)
	}
	for b := 0; b < 2; b++ {
		if st.Area(replication.Block(b)) > cfg.MaxArea[b] || st.Area(replication.Block(b)) < cfg.MinArea[b] {
			return Result{}, fmt.Errorf("parfm: initial area %d of block %d outside [%d,%d]",
				st.Area(replication.Block(b)), b, cfg.MinArea[b], cfg.MaxArea[b])
		}
	}
	r.bind(st)
	r.cfg = cfg

	// Gains are evaluated from scratch against frozen sub-round states,
	// so the per-commit incremental neighbor maintenance is pure
	// overhead; turn it off for the run and restore it (which recomputes
	// the cached gains) so any later consumer of the state — the serial
	// engine, flow refinement, invariant checks — sees valid values.
	st.SetGainMaintenance(false)
	defer st.SetGainMaintenance(true)

	var res Result
	var err error
	res.Passes, res.Moves, err = RunPhases(cfg, "parfm-pass", func(n, threshold int, replOnly bool) (bool, int, int) {
		r.cfg.Threshold = threshold
		r.replOnly = replOnly
		return r.pass(&res, n)
	})
	res.Cut = st.CutSize()
	return res, err
}

// pass runs FM pass n as a sequence of synchronous sub-rounds and
// reports whether the cut improved, the number of committed moves and
// the cut after the rollback. Best-prefix rollback is per pass, via
// the undo trail.
func (r *Runner) pass(res *Result, n int) (bool, int, int) {
	st := r.st
	for i := range r.locked {
		r.locked[i] = false
	}
	// Best-prefix tracking minimizes the state's objective: plain cut
	// size, or the weighted topology cost when a net weight table is
	// installed (identical on unweighted states).
	startCut := st.Objective()
	bestCut := startCut
	bestTok := st.Mark()
	moves := 0
	sinceBest := 0
	stallCap := stallMoves(len(r.prop))
	full := true // first sub-round proposes every cell
	stalled := false
	for round := 0; !stalled; round++ {
		r.epoch++
		proposed := 0
		if full {
			r.proposeAll()
			proposed = len(r.prop)
			for i := range r.bhead {
				r.bhead[i] = -1
			}
			// Clear membership from the previous pass too: cells still
			// bucketed when a pass ends keep stale links, and unlinking
			// through those would corrupt the rebuilt lists.
			for i := range r.inb {
				r.inb[i] = false
			}
			r.curMax = 0
			for ci := range r.prop {
				if r.prop[ci].valid {
					r.push(int32(ci))
				}
			}
			full = false
		} else {
			r.proposeList(r.redo)
			proposed = len(r.redo)
			for _, ci := range r.redo {
				if r.prop[ci].valid && !r.locked[ci] {
					r.push(ci)
				}
			}
		}
		commits, stale := 0, 0
		r.dirtyList = r.dirtyList[:0]
		for commits < roundCommits {
			ci, ok := r.popBest()
			if !ok {
				break
			}
			c := hypergraph.CellID(ci)
			m := r.move(c)
			if _, err := st.Apply(m); err != nil {
				panic(fmt.Sprintf("parfm: applying %v: %v", m, err))
			}
			moves++
			commits++
			r.unlink(ci)
			r.locked[ci] = true
			r.prop[ci].valid = false
			for _, t := range st.LastTouched() {
				if !r.locked[t] && r.dirty[t] != r.epoch {
					r.dirty[t] = r.epoch
					r.dirtyList = append(r.dirtyList, int32(t))
					if r.inb[t] {
						// The commit touched this cell's neighborhood,
						// so its bucketed gain may be stale: reject the
						// proposal and re-propose next sub-round.
						r.unlink(int32(t))
						stale++
					}
				}
			}
			if cut := st.Objective(); cut < bestCut {
				bestCut = cut
				bestTok = st.Mark()
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= stallCap {
					stalled = true
					break
				}
			}
		}
		res.Rounds++
		res.Proposals += proposed
		res.Commits += commits
		res.Stale += stale
		r.cfg.Spans.Event(trace.Event{
			Kind:      trace.KindParRound,
			Attempt:   r.cfg.TraceAttempt,
			Pass:      n,
			Round:     round,
			Proposals: proposed,
			Commits:   commits,
			Stale:     stale,
		})
		if commits == 0 {
			// Nothing feasible remains: no cell was committed, so no
			// proposal went stale and the buckets hold only
			// area-infeasible entries. The state is unchanged, the next
			// sub-round would see exactly the same picture — the pass
			// is done.
			break
		}
		r.redo, r.dirtyList = r.dirtyList, r.redo
	}
	if err := st.Undo(bestTok); err != nil {
		panic(fmt.Sprintf("parfm: rollback: %v", err))
	}
	return bestCut < startCut, moves, bestCut
}

// move materializes cell c's stored proposal.
func (r *Runner) move(c hypergraph.CellID) replication.Move {
	p := &r.prop[c]
	return replication.Move{Cell: c, Kind: p.kind, Carry: p.carry, To: p.to}
}

// roundCommits bounds the number of commits per sub-round. It is the
// engine's staleness horizon: every commit defers the re-proposal of
// the cells it touched to the next sub-round, so larger sub-rounds
// commit against increasingly outdated cascade information and the
// final cut degrades (measured on rent65 instances: quality matches
// the serial engine up to roughly 16-commit sub-rounds, then falls
// off a cliff — at whole-graph sub-rounds the cut is 4-5x worse).
// Smaller sub-rounds sharpen quality but shrink the proposal batches
// available to the workers.
const roundCommits = 4

// minParallel is the smallest proposal batch worth fanning out to
// goroutines; below it the spawn/synchronization overhead dominates.
// The cutoff only affects wall-clock time, never results.
const minParallel = 2048

// proposeAll recomputes proposals for every cell, sharded across
// workers as contiguous index ranges.
func (r *Runner) proposeAll() {
	n := len(r.prop)
	w := r.cfg.Workers
	if w <= 1 || n < minParallel {
		r.proposeRange(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r.proposeRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// proposeList recomputes proposals for the listed cells, sharded
// across workers as contiguous list ranges.
func (r *Runner) proposeList(list []int32) {
	n := len(list)
	w := r.cfg.Workers
	if w <= 1 || n < minParallel {
		r.proposeCells(list)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []int32) {
			defer wg.Done()
			r.proposeCells(part)
		}(list[lo:hi])
	}
	wg.Wait()
}

func (r *Runner) proposeRange(lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		if r.locked[ci] {
			r.prop[ci].valid = false
			continue
		}
		r.propose(hypergraph.CellID(ci))
	}
}

func (r *Runner) proposeCells(list []int32) {
	for _, ci := range list {
		if r.locked[ci] {
			r.prop[ci].valid = false
			continue
		}
		r.propose(hypergraph.CellID(ci))
	}
}

// propose stores cell c's best candidate move evaluated against the
// current (frozen) state. Candidate priority on gain ties is the fixed
// scan order — unreplicate-to-0 before unreplicate-to-1, the single
// move before replication splits in table order — which keeps the
// choice a pure function of the frozen state. With gain maintenance
// off, SingleGain evaluates from scratch; like Gain it only reads the
// state, so workers propose concurrently.
func (r *Runner) propose(c hypergraph.CellID) {
	st := r.st
	p := &r.prop[c]
	if st.IsReplicated(c) {
		g0 := st.MustGain(replication.Move{Cell: c, Kind: replication.Unreplicate, To: 0})
		g1 := st.MustGain(replication.Move{Cell: c, Kind: replication.Unreplicate, To: 1})
		p.kind = replication.Unreplicate
		p.carry = 0
		if g1 > g0 {
			p.to, p.gain = 1, int32(g1)
		} else {
			p.to, p.gain = 0, int32(g0)
		}
		p.valid = true
		return
	}
	p.valid = false
	if !r.replOnly {
		p.kind = replication.SingleMove
		p.carry, p.to = 0, 0
		p.gain = int32(st.SingleGain(c))
		p.valid = true
	}
	if r.cfg.Threshold != NoReplication && st.CanReplicate(c, r.cfg.Threshold) {
		for _, carry := range st.Splits(c) {
			g := int32(st.MustGain(replication.Move{Cell: c, Kind: replication.Replicate, Carry: carry}))
			if !p.valid || g > p.gain {
				p.kind = replication.Replicate
				p.carry, p.to = carry, 0
				p.gain = g
				p.valid = true
			}
		}
	}
}

// stallMoves is the early-termination budget of a pass: after this
// many consecutive commits without a new best cut the pass ends and
// rolls back to the best prefix. Serial FM spends well over half of
// every pass walking the negative-gain tail past the best prefix;
// bounding the fruitless stretch to a quarter of the graph keeps the
// deep hill-climbs that matter (measured cut parity with the
// unbounded pass on rent65 instances) while dropping most of the
// apply-then-undo churn. Purely a function of the cell count, so it
// cannot break run determinism.
func stallMoves(n int) int { return n/4 + 256 }

// push links cell ci into the bucket for its proposed gain, at the
// head — most-recently-proposed first, the deterministic analogue of
// the serial engine's LIFO gain buckets.
func (r *Runner) push(ci int32) {
	idx := int(r.prop[ci].gain) + r.gainOf
	r.bnext[ci] = r.bhead[idx]
	r.bprev[ci] = -1
	if h := r.bhead[idx]; h >= 0 {
		r.bprev[h] = ci
	}
	r.bhead[idx] = ci
	r.inb[ci] = true
	if idx > r.curMax {
		r.curMax = idx
	}
}

// unlink removes cell ci from its bucket.
func (r *Runner) unlink(ci int32) {
	if !r.inb[ci] {
		return
	}
	if p := r.bprev[ci]; p >= 0 {
		r.bnext[p] = r.bnext[ci]
	} else {
		r.bhead[int(r.prop[ci].gain)+r.gainOf] = r.bnext[ci]
	}
	if nx := r.bnext[ci]; nx >= 0 {
		r.bprev[nx] = r.bprev[ci]
	}
	r.inb[ci] = false
}

// popBest returns the highest-gain area-feasible proposal, scanning
// buckets downward from the current maximum and each bucket in
// recency order. Area-infeasible entries are left in place — their
// gains stay exact until a commit touches them, so they simply wait
// for a later sub-round to free area.
func (r *Runner) popBest() (int32, bool) {
	st := r.st
	for r.curMax > 0 && r.bhead[r.curMax] < 0 {
		r.curMax--
	}
	for idx := r.curMax; idx >= 0; idx-- {
		for ci := r.bhead[idx]; ci >= 0; ci = r.bnext[ci] {
			m := r.move(hypergraph.CellID(ci))
			d0, d1, err := st.AreaDelta(m)
			if err != nil {
				panic(fmt.Sprintf("parfm: area delta of %v: %v", m, err))
			}
			a0, a1 := st.Area(0)+d0, st.Area(1)+d1
			if a0 >= r.cfg.MinArea[0] && a0 <= r.cfg.MaxArea[0] &&
				a1 >= r.cfg.MinArea[1] && a1 <= r.cfg.MaxArea[1] {
				return ci, true
			}
		}
	}
	return -1, false
}
