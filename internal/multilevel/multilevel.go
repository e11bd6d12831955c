// Package multilevel implements the coarsen→partition→uncoarsen
// V-cycle over the flat FM bipartitioner — the standard scaling
// recipe of modern hypergraph partitioners (hMETIS, KaHyPar and the
// direct k-way systems cited in PAPERS.md), grafted onto this engine's
// substrates: the cut-preserving connectivity clustering of
// internal/cluster contracts the netlist level by level, the coarsest
// level is bipartitioned by a deterministic multi-start loop over
// the existing cluster-seed + FM machinery, and the assignment is
// projected back one level at a time with an FM refinement pass at
// every level.
//
// Every level is a replication.State. The finest is the caller's:
// kway's carve state, bound to the source or narrowed to a remainder.
// The coarser ones are contracted straight into recycled states, so
// the cycle builds no graph, and each level's FM refinement resets
// the level's own state.
//
// A carve chain coarsens once per attempt. After an accepted carve,
// Runner.Retarget narrows the finest state to the remainder, and the
// next Run narrows every coarse level of the carve's hierarchy to it
// (cluster.Coarsener.Narrow) instead of matching it again, for as long
// as the level's cluster cap fits the new cycle. Every other run, the
// attempt's first and each retry on the same remainder, coarsens
// afresh, so a hierarchy depends only on its attempt's own carves.
//
// Three structural facts make the V-cycle sound here:
//
//   - Contraction is cut-preserving: a net internal to one cluster
//     vanishes, every surviving net keeps its terminal flag, and
//     coarse cells sum member areas — so projecting a coarse
//     assignment to the finer level preserves both the cut size and
//     the block areas exactly.
//   - FM never worsens: each pass rolls back to its best prefix, so
//     the refined cut at a level is never above the projected cut.
//   - All randomness is seed-derived and every reduction is
//     index-ordered, so fixed-seed results are byte-identical
//     run-to-run regardless of worker scheduling.
//
// The V-cycle runs plain FM (no replication) at every level: coarse
// cells carry full output dependence, so functional replication is
// meaningless above the finest level, and the finest-level replication
// pass belongs to the caller (kway's carveFM runs replication-FM on
// the returned assignment; see DESIGN.md §13).
package multilevel

import (
	"fmt"
	"math/rand"
	"slices"

	"fpgapart/internal/cluster"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// Primes separating the package's independent seed streams: coarsest
// multi-start attempts, per-level clustering and per-level refinement.
const (
	startStride   = 7907
	clusterStride = 6151
	refineStride  = 15485863
)

// Coarsening stops at maxLevels levels, or when one round shrinks the
// cell count by less than coarsenRatio — coarse/fine above the ratio
// means matching has saturated.
const (
	maxLevels    = 24
	coarsenRatio = 0.85
)

// Config controls one V-cycle run.
type Config struct {
	// Config is the FM run of the finest level: its MinArea/MaxArea
	// bound the block areas there, and its MaxPasses, RefineWorkers,
	// Seed, TraceAttempt and Spans apply to every FM run of the cycle
	// (coarsest partition and per-level refinement). Seed also derives
	// every random stream of the cycle. Each FM run copies this config
	// and overrides MinArea/MaxArea with its level's widened window
	// (see Slack), Seed with the start's or level's derived seed,
	// Threshold with fm.NoReplication (the cycle runs plain FM;
	// replication belongs to the caller's finest pass), and Inject with
	// nil (V-cycle FM runs are never injected).
	//
	// Spans, when armed, also times the V-cycle as a span subtree of
	// the enclosing attempt: one "coarsen" span, one "level" span per
	// refined level (fm-pass/parfm-pass spans nest under it), and one
	// "uncoarsen" span over the projection sweep. With a sink on the
	// scope, each level span ends with a trace.KindLevel event and the
	// coarsen and uncoarsen spans with a KindPhase event carrying their
	// durations. The coarsen span's detail and its event's Level count
	// the levels narrowed rather than matched afresh (see Runner.Run).
	fm.Config
	// TargetArea is the block-0 area goal the coarsest-level seed
	// clusters grow toward (0 = the midpoint of the feasible window).
	TargetArea int
	// PinExternal switches the objective from the plain cut to t_P0
	// (terminal pressure): external nets pin one terminal into block 0
	// at every level, mirroring kway's carve objective.
	PinExternal bool
	// MinCells stops coarsening once a level has at most this many
	// cells (default 96).
	MinCells int
	// MaxClusterArea caps a coarse cell's area across all levels
	// (0 = max(2, TargetArea/8)): the coarsest granularity must stay
	// well below the block size or no coarse assignment can satisfy
	// the area window.
	MaxClusterArea int
	// Slack controls the per-level widening of the block-0 area window
	// during uncoarsening: by default level ℓ is widened by its cluster
	// area cap — the granularity actually achievable there, so a
	// coarse assignment can exist at all; the finest level always uses
	// the exact bounds. A negative value disables widening entirely,
	// which keeps the exact window at every level (then repair never
	// runs and the refined cut is monotone non-increasing down the
	// whole cycle, the property TestMonotoneCutAcrossLevels pins).
	Slack int
	// Starts is the number of independent coarsest-level starts the
	// multi-start loop runs (default 4).
	Starts int
}

// levelFM is the FM run of one level: the embedded config with the
// level's window w and seed, as plain FM without a fault plan.
func (c Config) levelFM(w bounds, seed int64) fm.Config {
	f := c.Config
	f.MinArea, f.MaxArea = w.min, w.max
	f.Threshold = fm.NoReplication
	f.Inject = nil
	f.Seed = seed
	return f
}

func (c Config) withDefaults() Config {
	if c.MinCells == 0 {
		c.MinCells = 96
	}
	if c.Starts == 0 {
		c.Starts = 4
	}
	return c
}

// LevelStats records one level's share of the V-cycle, coarsest first
// in Result.Levels.
type LevelStats struct {
	// Level is the hierarchy depth: 0 is the finest (input) level.
	Level int
	// Cells/Nets size the level.
	Cells, Nets int
	// ClusterCap is the cluster-area cap used to build this level
	// (0 at the finest level).
	ClusterCap int
	// CutProjected and CutRefined are the objective the level's FM
	// minimizes — the cut, or t_P0 (Config.PinExternal) — right after
	// projecting the coarser assignment down (after repair; at the
	// coarsest level, of the seed assignment) and after the level's FM
	// refinement, which never raises it.
	CutProjected, CutRefined int
	// RepairMoves counts the cells moved to re-enter the level's area
	// window after projection (0 when the window was already met).
	RepairMoves int
	// Area0 is the block-0 area after the level's refinement.
	Area0 int
	// Moves/Passes total the refinement's FM work.
	Moves, Passes int
}

// Result is the finished V-cycle.
type Result struct {
	// Assign is the finest-level bipartition assignment. A Runner's
	// result holds it in the Runner's storage, valid until its next
	// Run.
	Assign []replication.Block
	// Cut is the finest-level objective after refinement: the cut, or
	// t_P0 (Config.PinExternal). Area holds the block areas.
	Cut  int
	Area [2]int
	// Levels holds per-level statistics, coarsest first.
	Levels []LevelStats
	// Moves/Passes total the FM work across all levels; RepairMoves
	// the projection-repair work.
	Moves, Passes, RepairMoves int
}

// level is one rung of the hierarchy. cl relates st to the next finer
// level (nil at the finest level).
type level struct {
	st  *replication.State
	cl  *cluster.Clustering
	cap int
}

// Runner executes V-cycles, reusing its storage across the levels of a
// cycle, the coarsest starts and successive cycles: one FM runner, one
// cluster-growing scratch, a coarsener that contracts level ℓ into its
// slot ℓ−1 and so recycles, or after Retarget narrows, the previous
// cycle's hierarchy, and the assignment buffers of the starts, the
// projections and the repair.
// Every contraction gives its level a new layout, and the FM engines
// key their buffers on State.Layout, so they never mistake a recycled
// level for the one it replaced. A warm Runner allocates no state, FM
// or hierarchy storage for levels no larger than ones it has served. A
// zero Runner is ready to use; a Runner is not safe for concurrent use.
// A fresh Runner is the one-shot form.
type Runner struct {
	fm        fm.Runner
	cluster   fm.ClusterScratch
	coarsener cluster.Coarsener
	levels    []level
	starts    [2][]replication.Block // a start's assignment and the best one
	proj      [2][]replication.Block // the projections, alternating by level
	rng       *rand.Rand             // repair's stream, reseeded per repair
	perm      []int

	// The hierarchy's finest layout, the layout Retarget narrowed it
	// to (0: none pending) and, per cell of the finest level before
	// that Retarget, its cell after it or -1 (see Retarget).
	fine, narrow uint64
	ids          []int32
}

// Retarget narrows st, the finest level of the Runner's last cycle, to
// its block 1 (replication.State.Retarget) and marks the cycle's
// hierarchy for narrowing to the remainder: the next Run on st, if st
// still has the layout this Retarget gave it, narrows each coarse level
// instead of matching it again (see Run). Any other state, a state
// whose layout changed since the cycle, or a second Retarget with no
// Run between is re-targeted alone, and the hierarchy dropped.
func (r *Runner) Retarget(st *replication.State) {
	r.narrow = 0
	keep := len(r.levels) > 1 && r.levels[0].st == st && st.Layout() == r.fine
	if keep {
		ids := slices.Grow(r.ids[:0], st.NumCells())[:st.NumCells()]
		j := int32(0)
		for c := range ids {
			ids[c] = -1
			if st.OutputsIn(hypergraph.CellID(c), 1) != 0 {
				ids[c] = j
				j++
			}
		}
		r.ids = ids
	}
	st.Retarget()
	if keep {
		r.narrow = st.Layout()
	}
}

// Run executes the V-cycle with st as its finest level: a state bound
// to a graph or narrowed to a remainder, whose partition need not be
// set. Unless Retarget preceded it, the result equals a fresh
// Runner's on the graph st holds. A Run right after
// Retarget, on the state it re-targeted, narrows the hierarchy instead
// of coarsening afresh: every coarse level keeps its matching, less
// the cells the remainder dropped, for as long as its cluster cap is
// within this cycle's; above the last level it keeps, coarsening
// matches afresh. The cycle overwrites st's partition: reset it before
// reading one.
func (r *Runner) Run(st *replication.State, cfg Config) (Result, error) {
	narrow := r.narrow != 0 && st.Layout() == r.narrow
	r.narrow = 0
	cfg = cfg.withDefaults()
	if st.NumCells() == 0 {
		return Result{}, fmt.Errorf("multilevel: empty circuit")
	}
	if cfg.MaxArea[0] <= 0 || cfg.MaxArea[1] <= 0 {
		return Result{}, fmt.Errorf("multilevel: MaxArea must be positive, got %v", cfg.MaxArea)
	}
	total := st.TotalArea()
	// The two blocks' bounds collapse to one block-0 area window.
	lo := cfg.MinArea[0]
	if v := total - cfg.MaxArea[1]; v > lo {
		lo = v
	}
	hi := cfg.MaxArea[0]
	if v := total - cfg.MinArea[1]; v < hi {
		hi = v
	}
	if lo > hi {
		return Result{}, fmt.Errorf("multilevel: infeasible area window [%d,%d] for total %d", lo, hi, total)
	}
	target := cfg.TargetArea
	if target <= 0 {
		target = (lo + hi) / 2
	}
	if target < lo {
		target = lo
	}
	if target > hi {
		target = hi
	}

	coarsenSpan := cfg.Spans.Start("coarsen", cfg.TraceAttempt)
	levels, narrowed := r.coarsen(st, cfg, target, narrow)
	if coarsenSpan.Scope().Enabled() {
		coarsenSpan.Detail(fmt.Sprintf("levels=%d narrowed=%d", len(levels)-1, narrowed))
	}
	coarsenSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseCoarsen, Level: narrowed})
	top := len(levels) - 1

	res := Result{Levels: make([]LevelStats, 0, len(levels))}
	topSpan := cfg.Spans.Start("level", cfg.TraceAttempt)
	topCfg := cfg
	topCfg.Spans = topSpan.Scope()
	assign, stats, err := r.initialPartition(levels[top], topCfg, window(lo, hi, total, slack(cfg, levels[top])), target)
	if err != nil {
		topSpan.End()
		return Result{}, err
	}
	stats.Level = top
	endLevel(topSpan, stats)
	res.Levels = append(res.Levels, stats)

	uncoarsenSpan := cfg.Spans.Start("uncoarsen", cfg.TraceAttempt)
	cut := stats.CutRefined
	area0 := areaOf(levels[top].st, assign)
	for l := top - 1; l >= 0; l-- {
		lv := levels[l]
		fine, perr := levels[l+1].cl.Project(r.proj[l%2], assign, lv.st.NumCells())
		if perr != nil {
			uncoarsenSpan.End()
			return Result{}, fmt.Errorf("multilevel: level %d projection: %w", l, perr)
		}
		r.proj[l%2] = fine
		assign = fine
		lvlSpan := uncoarsenSpan.Scope().Start("level", cfg.TraceAttempt)
		lvlCfg := cfg
		lvlCfg.Spans = lvlSpan.Scope()
		stats, lerr := r.refineLevel(lv, assign, lvlCfg, window(lo, hi, total, slack(cfg, lv)), l)
		if lerr != nil {
			lvlSpan.End()
			uncoarsenSpan.End()
			return Result{}, lerr
		}
		endLevel(lvlSpan, stats)
		res.Levels = append(res.Levels, stats)
		for c := range assign {
			assign[c] = lv.st.Home(hypergraph.CellID(c))
		}
		cut = stats.CutRefined
		area0 = lv.st.Area(0)
	}
	uncoarsenSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseUncoarsen})

	res.Assign = assign
	res.Cut = cut
	res.Area = [2]int{area0, total - area0}
	for _, s := range res.Levels {
		res.Moves += s.Moves
		res.Passes += s.Passes
		res.RepairMoves += s.RepairMoves
	}
	return res, nil
}

// endLevel ends one refined level's span, annotated with and
// reporting the level's stats.
func endLevel(run span.Running, s LevelStats) {
	if run.Scope().Enabled() {
		run.Detail(fmt.Sprintf("level=%d cells=%d cut=%d", s.Level, s.Cells, s.CutRefined))
	}
	run.EndEvent(trace.Event{
		Kind: trace.KindLevel, Level: s.Level, Cells: s.Cells,
		Area: s.Area0, Cut: s.CutRefined, Moves: s.Moves, Pass: s.Passes,
	})
}

// coarsen builds the cluster hierarchy over st bottom-up into the
// coarsener's slots, level ℓ in slot ℓ-1: one pairwise matching round
// per level with a doubling area cap, stopping at MinCells, maxLevels,
// saturation (coarsenRatio) or a contraction error (the current level
// then serves as the coarsest). With narrowing set, st is the state
// Retarget narrowed the previous hierarchy's finest level to, and
// coarsen first narrows that hierarchy's levels, from the finest up,
// while their caps are within capMax and their contractions succeed
// and shrink the level; it returns the number of levels narrowed.
func (r *Runner) coarsen(st *replication.State, cfg Config, target int, narrowing bool) ([]level, int) {
	prev := r.levels
	r.fine = st.Layout()
	ids, narrowed := r.ids, 0
	levels := append(r.levels[:0], level{st: st})
	capMax := cfg.MaxClusterArea
	if capMax == 0 {
		capMax = target / 8
		if capMax < 2 {
			capMax = 2
		}
	}
	base := 1
	for c := range st.NumCells() {
		if a := st.CellArea(hypergraph.CellID(c)); a > base {
			base = a
		}
	}
	for len(levels)-1 < maxLevels {
		cur := levels[len(levels)-1].st
		if cur.NumCells() <= cfg.MinCells {
			break
		}
		l := len(levels)
		var (
			cl      *cluster.Clustering
			err     error
			areaCap int
		)
		// prev[l] is read before the append below overwrites it.
		narrowing = narrowing && l < len(prev) && prev[l].cap <= capMax
		if narrowing {
			areaCap = prev[l].cap
			cl, ids, err = r.coarsener.Narrow(l-1, cur, ids)
			narrowing = err == nil && cl.Level.NumCells() < cur.NumCells()
		}
		if narrowing {
			narrowed++
		} else {
			areaCap = base << l
			if areaCap > capMax || areaCap <= 0 {
				areaCap = capMax
			}
			cl, err = r.coarsener.Build(l-1, cur, cluster.Options{
				MaxClusterArea: areaCap,
				// replication.State admits at most 32 outputs per cell;
				// stay well under it so every level remains partitionable.
				MaxClusterOutputs: 24,
				Seed:              cfg.Seed + int64(l)*clusterStride,
			})
		}
		if err != nil || cl.Level.NumCells() >= cur.NumCells() {
			break
		}
		levels = append(levels, level{st: cl.Level, cl: cl, cap: areaCap})
		if float64(cl.Level.NumCells()) > coarsenRatio*float64(cur.NumCells()) {
			break
		}
	}
	r.levels = levels
	return levels, narrowed
}

// slack is the widening applied to a level's area window: the level's
// cluster granularity, or zero at the finest level or when widening is
// disabled.
func slack(cfg Config, lv level) int {
	if lv.cl == nil || cfg.Slack < 0 {
		return 0
	}
	return lv.cap
}

// bounds is a block-0 area window in fm.Config form.
type bounds struct {
	min, max [2]int
	lo, hi   int
}

// window widens the block-0 window [lo,hi] by s and converts it to
// per-block bounds over the (level-invariant) total area.
func window(lo, hi, total, s int) bounds {
	wlo, whi := lo-s, hi+s
	if wlo < 0 {
		wlo = 0
	}
	if whi > total {
		whi = total
	}
	min1 := total - whi
	if min1 < 0 {
		min1 = 0
	}
	return bounds{
		min: [2]int{wlo, min1},
		max: [2]int{whi, total - wlo},
		lo:  wlo, hi: whi,
	}
}

// initialPartition bipartitions the coarsest level with a
// deterministic multi-start loop on the level's own state: start i
// grows a connected cluster seeded with Seed + i*startStride toward the
// target area, repairs it into the window and refines it with plain FM;
// the first strictly better start (lowest objective, then area closest
// to target) is kept. A panic inside a start is not contained here;
// kway's attempt closure drops the whole Runner and the search pool
// folds the solution attempt as failed.
func (r *Runner) initialPartition(lv level, cfg Config, w bounds, target int) ([]replication.Block, LevelStats, error) {
	st := lv.st
	tgt := target
	if tgt > w.hi {
		tgt = w.hi
	}
	var (
		stats    LevelStats
		area0    int
		found    bool
		firstErr error
	)
	cur, best := r.starts[0], r.starts[1]
	for i := 0; i < cfg.Starts; i++ {
		seed := cfg.Seed + int64(i)*startStride
		cur = r.cluster.Assign(cur, st, seed, tgt)
		rep, err := r.repair(st, cur, w, seed)
		if err == nil {
			err = st.ResetPinned(cur, cfg.PinExternal)
		}
		var res fm.Result
		cutInit := 0
		if err == nil {
			cutInit = st.CutSize()
			res, err = r.fm.Run(st, cfg.levelFM(w, seed))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cut, a0 := st.CutSize(), st.Area(0)
		if found && (cut > stats.CutRefined || cut == stats.CutRefined && absDiff(a0, tgt) >= absDiff(area0, tgt)) {
			continue
		}
		for c := range cur {
			cur[c] = st.Home(hypergraph.CellID(c))
		}
		cur, best = best, cur
		found, area0 = true, a0
		stats = LevelStats{
			Cells: st.NumCells(), Nets: st.NumNets(), ClusterCap: lv.cap,
			CutProjected: cutInit, CutRefined: cut, Area0: a0,
			RepairMoves: rep, Moves: res.Moves, Passes: res.Passes,
		}
	}
	r.starts = [2][]replication.Block{cur, best}
	if !found {
		return nil, LevelStats{}, fmt.Errorf("multilevel: no feasible coarsest partition in %d starts (first failure: %w)", cfg.Starts, firstErr)
	}
	return best, stats, nil
}

// refineLevel repairs a projected assignment into the level's window
// and runs one plain-FM refinement over it on the level's state, which
// holds the refined level on return.
func (r *Runner) refineLevel(lv level, assign []replication.Block, cfg Config, w bounds, l int) (LevelStats, error) {
	st := lv.st
	rep, rerr := r.repair(st, assign, w, cfg.Seed+int64(l+1)*refineStride)
	if rerr != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d: %w", l, rerr)
	}
	if err := st.ResetPinned(assign, cfg.PinExternal); err != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d: %w", l, err)
	}
	cutProj := st.CutSize()
	res, err := r.fm.Run(st, cfg.levelFM(w, cfg.Seed+int64(l+1)*refineStride))
	if err != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d refinement: %w", l, err)
	}
	return LevelStats{
		Level: l, Cells: st.NumCells(), Nets: st.NumNets(), ClusterCap: lv.cap,
		CutProjected: cutProj, CutRefined: st.CutSize(), Area0: st.Area(0),
		RepairMoves: rep, Moves: res.Moves, Passes: res.Passes,
	}, nil
}

// repair nudges an assignment's block-0 area into [w.lo, w.hi] with
// deterministic seeded greedy moves, visiting the cells in the order
// rand.New(rand.NewSource(seed)).Perm returns. Projection preserves
// areas exactly, so repair only runs when the window tightened since
// the coarser level (slack shrinks descending); FM then recovers the
// cut damage. A zero return means the assignment was already in window.
func (r *Runner) repair(st *replication.State, assign []replication.Block, w bounds, seed int64) (int, error) {
	area0 := areaOf(st, assign)
	if area0 >= w.lo && area0 <= w.hi {
		return 0, nil
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
	} else {
		r.rng.Seed(seed)
	}
	perm := slices.Grow(r.perm[:0], len(assign))[:len(assign)]
	r.perm = perm
	for i := range perm {
		j := r.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	moves := 0
	for area0 < w.lo {
		moved := false
		for _, ci := range perm {
			if assign[ci] != 1 {
				continue
			}
			a := st.CellArea(hypergraph.CellID(ci))
			if area0+a > w.hi {
				continue
			}
			assign[ci] = 0
			area0 += a
			moves++
			moved = true
			if area0 >= w.lo {
				break
			}
		}
		if !moved {
			return moves, fmt.Errorf("multilevel: cannot repair block 0 area %d into [%d,%d]", area0, w.lo, w.hi)
		}
	}
	for area0 > w.hi {
		moved := false
		for _, ci := range perm {
			if assign[ci] != 0 {
				continue
			}
			a := st.CellArea(hypergraph.CellID(ci))
			if area0-a < w.lo {
				continue
			}
			assign[ci] = 1
			area0 -= a
			moves++
			moved = true
			if area0 <= w.hi {
				break
			}
		}
		if !moved {
			return moves, fmt.Errorf("multilevel: cannot repair block 0 area %d into [%d,%d]", area0, w.lo, w.hi)
		}
	}
	return moves, nil
}

func areaOf(st *replication.State, assign []replication.Block) int {
	area := 0
	for c := range assign {
		if assign[c] == 0 {
			area += st.CellArea(hypergraph.CellID(c))
		}
	}
	return area
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
