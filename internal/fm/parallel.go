package fm

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/trace"
)

// parEngine is the deterministic shared-memory parallel pass, selected
// by Config.RefineWorkers >= 2 on states of at least minParallel cells.
// It splits each FM pass into synchronous sub-rounds:
//
//  1. Propose: goroutines scan disjoint shards of the candidate cells
//     and, for each, evaluate its best move (single move, functional
//     replication, unreplication — the same move universe as the
//     serial engine) against the state frozen at the start of the
//     sub-round. Gain evaluation only reads the state, so the
//     goroutines share it without scratch of their own. The first
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
// nothing, when stallMoves consecutive commits fail to improve on the
// best cut, or, as a serial pass does, once its objective floor
// reaches the best cut.
//
// Proposals read the state's maintained single-move gains in O(1),
// like the serial engine; a commit patches them during the same
// neighbor sweep that records the touched cells. What keeps the engine
// fast is the work it skips: the stall cutoff ends a pass after
// stallMoves fruitless commits instead of walking the whole
// negative-gain tail, the objective floor often ends it sooner, and
// best-prefix rollback undoes the short tail past the best prefix on
// the trail rather than snapshotting the full state at every improving
// move (DESIGN.md §14 has the measurements).
type parEngine struct {
	layout
	st      *replication.State
	cfg     Config
	workers int // proposal fan-out: min(RefineWorkers, GOMAXPROCS)

	locked []bool
	prop   []proposal
	cells  []int32 // every cell index in order: the full proposal scan
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

	floor    replication.ObjectiveFloor // per-pass cut lower bound
	replOnly bool
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

// bind points the engine at a state, laying the per-cell buffers out
// again only when the layout key changed (see layout). Every buffer
// but dirty is rewritten before it is read; dirty's epoch stamps
// restart with the epoch, so it is cleared.
func (p *parEngine) bind(st *replication.State) {
	p.st = st
	if !p.relayout(st) {
		return
	}
	n := st.NumCells()
	p.locked = slices.Grow(p.locked[:0], n)[:n]
	p.prop = slices.Grow(p.prop[:0], n)[:n]
	p.cells = slices.Grow(p.cells[:0], n)[:n]
	for i := range p.cells {
		p.cells[i] = int32(i)
	}
	p.dirty = slices.Grow(p.dirty[:0], n)[:n]
	clear(p.dirty)
	buckets := 2*p.gainOf + 2
	p.bhead = slices.Grow(p.bhead[:0], buckets)[:buckets]
	p.bnext = slices.Grow(p.bnext[:0], n)[:n]
	p.bprev = slices.Grow(p.bprev[:0], n)[:n]
	p.inb = slices.Grow(p.inb[:0], n)[:n]
	p.dirtyList = p.dirtyList[:0]
	p.redo = p.redo[:0]
	p.epoch = 0
}

// run improves the state under the runPhases schedule and returns the
// passes run and the moves committed. cfg has been validated and
// carries its defaults.
func (p *parEngine) run(st *replication.State, cfg Config) (passes, moves int, err error) {
	p.bind(st)
	p.cfg = cfg
	// More goroutines than CPUs cannot speed a scan up, and the worker
	// count never changes the result, so the fan-out is capped here
	// rather than validated at every surface that sets it.
	p.workers = min(cfg.RefineWorkers, runtime.GOMAXPROCS(0))
	return runPhases(cfg, "parfm-pass", func(n, threshold int, replOnly bool) (bool, int, int) {
		p.cfg.Threshold = threshold
		p.replOnly = replOnly
		return p.pass(n)
	})
}

// pass runs FM pass n as a sequence of synchronous sub-rounds and
// reports whether the cut improved, the number of committed moves and
// the cut after the rollback. Best-prefix rollback is per pass, via
// the undo trail. Stopping at the objective floor never changes the
// prefix the pass rolls back to.
func (p *parEngine) pass(n int) (bool, int, int) {
	st := p.st
	if p.cfg.Threshold != NoReplication {
		// Built here, before the proposal goroutines read it.
		st.PrepareSplitGains()
	}
	for i := range p.locked {
		p.locked[i] = false
	}
	startCut := st.CutSize()
	bestCut := startCut
	bestTok := st.Mark()
	// As in the serial pass, what committed (locked) cells pin down
	// bounds every later prefix's cut from below: once the floor
	// reaches bestCut the pass stops, rolling back to the same best
	// prefix the stall cutoff would have.
	p.floor.Reset(st)
	moves := 0
	sinceBest := 0
	stallCap := stallMoves(len(p.prop))
	full := true // first sub-round proposes every cell
	stalled := p.floor.Value() >= bestCut
	for round := 0; !stalled; round++ {
		p.epoch++
		proposed := 0
		if full {
			p.propose(p.cells)
			proposed = len(p.prop)
			for i := range p.bhead {
				p.bhead[i] = -1
			}
			// Clear membership from the previous pass too: cells still
			// bucketed when a pass ends keep stale links, and unlinking
			// through those would corrupt the rebuilt lists.
			for i := range p.inb {
				p.inb[i] = false
			}
			p.curMax = 0
			for ci := range p.prop {
				if p.prop[ci].valid {
					p.push(int32(ci))
				}
			}
			full = false
		} else {
			p.propose(p.redo)
			proposed = len(p.redo)
			for _, ci := range p.redo {
				if p.prop[ci].valid && !p.locked[ci] {
					p.push(ci)
				}
			}
		}
		commits, stale := 0, 0
		p.dirtyList = p.dirtyList[:0]
		for commits < roundCommits {
			ci, ok := p.popBest()
			if !ok {
				break
			}
			c := hypergraph.CellID(ci)
			m := p.move(c)
			if _, err := st.Apply(m); err != nil {
				panic(fmt.Sprintf("fm: applying %v: %v", m, err))
			}
			moves++
			commits++
			p.unlink(ci)
			p.locked[ci] = true
			p.floor.Lock(c)
			p.prop[ci].valid = false
			for _, t := range st.LastTouched() {
				if !p.locked[t] && p.dirty[t] != p.epoch {
					p.dirty[t] = p.epoch
					p.dirtyList = append(p.dirtyList, int32(t))
					if p.inb[t] {
						// The commit touched this cell's neighborhood,
						// so its bucketed gain may be stale: reject the
						// proposal and re-propose next sub-round.
						p.unlink(int32(t))
						stale++
					}
				}
			}
			if cut := st.CutSize(); cut < bestCut {
				bestCut = cut
				bestTok = st.Mark()
				sinceBest = 0
			} else {
				sinceBest++
			}
			if sinceBest >= stallCap || p.floor.Value() >= bestCut {
				stalled = true
				break
			}
		}
		p.cfg.Spans.Event(trace.Event{
			Kind:      trace.KindParRound,
			Attempt:   p.cfg.TraceAttempt,
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
		p.redo, p.dirtyList = p.dirtyList, p.redo
	}
	if err := st.Undo(bestTok); err != nil {
		panic(fmt.Sprintf("fm: rollback: %v", err))
	}
	return bestCut < startCut, moves, bestCut
}

// move materializes cell c's stored proposal.
func (p *parEngine) move(c hypergraph.CellID) replication.Move {
	pr := &p.prop[c]
	return replication.Move{Cell: c, Kind: pr.kind, Carry: pr.carry, To: pr.to}
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
// Within the parallel engine the cutoff only affects wall-clock time.
// It also selects the engine, and so the result: Runner.Run sends a
// state to the parallel engine only when it has at least minParallel
// cells, that is, only when the pass's first, full proposal scan fans
// out. A smaller state gets the serial engine, which on a scan that
// cannot fan out is faster.
const minParallel = 2048

// chunk is the shard size of a proposal scan over n cells: the whole
// scan below minParallel or with a single worker, otherwise n split
// into at most p.workers contiguous shards.
func (p *parEngine) chunk(n int) int {
	if p.workers <= 1 || n < minParallel {
		return n
	}
	return (n + p.workers - 1) / p.workers
}

// propose recomputes the proposals of the listed cells, one goroutine
// per shard (see chunk).
func (p *parEngine) propose(list []int32) {
	chunk := p.chunk(len(list))
	if chunk == len(list) {
		p.proposeCells(list)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(list); lo += chunk {
		part := list[lo:min(lo+chunk, len(list))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.proposeCells(part)
		}()
	}
	wg.Wait()
}

func (p *parEngine) proposeCells(list []int32) {
	var gains [replication.MaxSplits]int
	for _, ci := range list {
		if p.locked[ci] {
			p.prop[ci].valid = false
			continue
		}
		p.proposeCell(hypergraph.CellID(ci), gains[:])
	}
}

// proposeCell stores cell c's best candidate move evaluated against the
// current (frozen) state, using gains as SplitGains scratch. Candidate
// priority on gain ties is the fixed scan order — unreplicate-to-0
// before unreplicate-to-1, the single move before replication splits in
// table order — which keeps the choice a pure function of the frozen
// state. SingleGain, Gain and SplitGains only read the state, so
// goroutines propose concurrently.
func (p *parEngine) proposeCell(c hypergraph.CellID, gains []int) {
	st := p.st
	pr := &p.prop[c]
	if st.IsReplicated(c) {
		g0 := st.MustGain(replication.Move{Cell: c, Kind: replication.Unreplicate, To: 0})
		g1 := st.MustGain(replication.Move{Cell: c, Kind: replication.Unreplicate, To: 1})
		pr.kind = replication.Unreplicate
		pr.carry = 0
		if g1 > g0 {
			pr.to, pr.gain = 1, int32(g1)
		} else {
			pr.to, pr.gain = 0, int32(g0)
		}
		pr.valid = true
		return
	}
	pr.valid = false
	if !p.replOnly {
		pr.kind = replication.SingleMove
		pr.carry, pr.to = 0, 0
		pr.gain = int32(st.SingleGain(c))
		pr.valid = true
	}
	if p.cfg.Threshold != NoReplication && st.CanReplicate(c, p.cfg.Threshold) {
		gains = st.SplitGains(c, gains)
		for i, carry := range st.Splits(c) {
			g := int32(gains[i])
			if !pr.valid || g > pr.gain {
				pr.kind = replication.Replicate
				pr.carry, pr.to = carry, 0
				pr.gain = g
				pr.valid = true
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
func (p *parEngine) push(ci int32) {
	idx := int(p.prop[ci].gain) + p.gainOf
	p.bnext[ci] = p.bhead[idx]
	p.bprev[ci] = -1
	if h := p.bhead[idx]; h >= 0 {
		p.bprev[h] = ci
	}
	p.bhead[idx] = ci
	p.inb[ci] = true
	if idx > p.curMax {
		p.curMax = idx
	}
}

// unlink removes cell ci from its bucket.
func (p *parEngine) unlink(ci int32) {
	if !p.inb[ci] {
		return
	}
	if prev := p.bprev[ci]; prev >= 0 {
		p.bnext[prev] = p.bnext[ci]
	} else {
		p.bhead[int(p.prop[ci].gain)+p.gainOf] = p.bnext[ci]
	}
	if nx := p.bnext[ci]; nx >= 0 {
		p.bprev[nx] = p.bprev[ci]
	}
	p.inb[ci] = false
}

// popBest returns the highest-gain area-feasible proposal, scanning
// buckets downward from the current maximum and each bucket in
// recency order. Area-infeasible entries are left in place — their
// gains stay exact until a commit touches them, so they simply wait
// for a later sub-round to free area.
func (p *parEngine) popBest() (int32, bool) {
	for p.curMax > 0 && p.bhead[p.curMax] < 0 {
		p.curMax--
	}
	for idx := p.curMax; idx >= 0; idx-- {
		for ci := p.bhead[idx]; ci >= 0; ci = p.bnext[ci] {
			if p.cfg.admitsMove(p.st, p.move(hypergraph.CellID(ci))) {
				return ci, true
			}
		}
	}
	return -1, false
}
