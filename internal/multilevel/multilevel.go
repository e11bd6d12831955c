// Package multilevel implements the coarsen→partition→uncoarsen
// V-cycle over the flat FM bipartitioner — the standard scaling
// recipe of modern hypergraph partitioners (hMETIS, KaHyPar and the
// direct k-way systems cited in PAPERS.md), grafted onto this engine's
// substrates: the cut-preserving connectivity clustering of
// internal/cluster contracts the netlist level by level, the coarsest
// hypergraph is bipartitioned by a deterministic multi-start loop over
// the existing cluster-seed + FM machinery, and the assignment is
// projected back one level at a time with an FM refinement pass at
// every level.
//
// Three structural facts make the V-cycle sound here:
//
//   - Contraction is cut-preserving: a net internal to one cluster
//     vanishes, every surviving net keeps its external kind, and
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
	// durations.
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
	// Level is the hierarchy depth: 0 is the finest (input) graph.
	Level int
	// Cells/Nets size the level's hypergraph.
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
	// Assign is the finest-level bipartition assignment.
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

// level is one rung of the hierarchy. cl relates g to the next finer
// level's graph (nil at the finest level).
type level struct {
	g   *hypergraph.Graph
	cl  *cluster.Clustering
	cap int
}

// Runner executes V-cycles, reusing one replication state, one FM
// runner and one cluster-growing scratch across the levels of a cycle,
// the coarsest starts and successive cycles: each level rebinds the
// state to its graph instead of building one, so a warm Runner lays
// out no state or FM storage for graphs no larger than ones it has
// served. Its coarsener recycles the arrays of
// the previous cycle's hierarchy, one storage slot per level, and
// returns a new graph header for every contraction, so the FM layout
// cache, keyed on graph identity, never mistakes a recycled level for
// the one it replaced. A zero Runner is ready to use; a Runner is not
// safe for concurrent use. The package-level Run is the one-shot form.
type Runner struct {
	st        replication.State
	fm        fm.Runner
	cluster   fm.ClusterScratch
	coarsener cluster.Coarsener
}

// State returns the replication state the Runner refines on. After a
// successful Run it is bound to the input graph and holds the returned
// assignment; a caller may run its own passes on it (with FM) until
// the next Run rebinds it.
func (r *Runner) State() *replication.State { return &r.st }

// FM returns the FM runner the Runner's cycles use, for a caller's
// own passes on State.
func (r *Runner) FM() *fm.Runner { return &r.fm }

// Run executes the V-cycle and returns the finest-level bipartition.
func Run(g *hypergraph.Graph, cfg Config) (Result, error) {
	var r Runner
	return r.Run(g, cfg)
}

// Run is the Runner form of the package-level Run; results are
// identical.
func (r *Runner) Run(g *hypergraph.Graph, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if g.NumCells() == 0 {
		return Result{}, fmt.Errorf("multilevel: empty circuit")
	}
	if cfg.MaxArea[0] <= 0 || cfg.MaxArea[1] <= 0 {
		return Result{}, fmt.Errorf("multilevel: MaxArea must be positive, got %v", cfg.MaxArea)
	}
	total := g.TotalArea()
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
	levels := r.coarsen(g, cfg, target)
	coarsenSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseCoarsen})
	top := len(levels) - 1

	var res Result
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
	area0 := areaOf(levels[top].g, assign)
	for l := top - 1; l >= 0; l-- {
		fine, perr := levels[l+1].cl.Project(assign, levels[l].g.NumCells())
		if perr != nil {
			uncoarsenSpan.End()
			return Result{}, fmt.Errorf("multilevel: level %d projection: %w", l, perr)
		}
		assign = fine
		lvlSpan := uncoarsenSpan.Scope().Start("level", cfg.TraceAttempt)
		lvlCfg := cfg
		lvlCfg.Spans = lvlSpan.Scope()
		lvl, lerr := r.refineLevel(levels[l], assign, lvlCfg, window(lo, hi, total, slack(cfg, levels[l])), l)
		if lerr != nil {
			lvlSpan.End()
			uncoarsenSpan.End()
			return Result{}, lerr
		}
		endLevel(lvlSpan, lvl)
		res.Levels = append(res.Levels, lvl)
		for c := range assign {
			assign[c] = r.st.Home(hypergraph.CellID(c))
		}
		cut = lvl.CutRefined
		area0 = r.st.Area(0)
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

// coarsen builds the cluster hierarchy bottom-up into the coarsener's
// slots, level ℓ in slot ℓ-1: one pairwise matching round per level
// with a doubling area cap, stopping at MinCells, maxLevels,
// saturation (coarsenRatio) or a contraction error (the current level
// then serves as the coarsest).
func (r *Runner) coarsen(g *hypergraph.Graph, cfg Config, target int) []level {
	levels := []level{{g: g}}
	capMax := cfg.MaxClusterArea
	if capMax == 0 {
		capMax = target / 8
		if capMax < 2 {
			capMax = 2
		}
	}
	base := 1
	for i := range g.Cells {
		if a := g.Cells[i].Area; a > base {
			base = a
		}
	}
	for len(levels)-1 < maxLevels {
		cur := levels[len(levels)-1].g
		if cur.NumCells() <= cfg.MinCells {
			break
		}
		areaCap := base << len(levels)
		if areaCap > capMax || areaCap <= 0 {
			areaCap = capMax
		}
		cl, err := r.coarsener.Build(len(levels)-1, cur, cluster.Options{
			MaxClusterArea: areaCap,
			// replication.State admits at most 32 outputs per cell;
			// stay well under it so every level remains partitionable.
			MaxClusterOutputs: 24,
			Seed:              cfg.Seed + int64(len(levels))*clusterStride,
		})
		if err != nil || cl.Graph.NumCells() >= cur.NumCells() {
			break
		}
		levels = append(levels, level{g: cl.Graph, cl: cl, cap: areaCap})
		if float64(cl.Graph.NumCells()) > coarsenRatio*float64(cur.NumCells()) {
			break
		}
	}
	return levels
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

// initialPartition bipartitions the coarsest hypergraph with a
// deterministic multi-start loop on r's storage: start i grows a
// connected cluster seeded with Seed + i*startStride toward the target
// area, repairs it into the window and refines it with plain FM; the
// first strictly better start (lowest objective, then area closest to
// target) is kept. r's state is bound to the coarsest graph once,
// before the starts, which grow their clusters over it and reset it (a
// failed repair leaves it as it was). A panic inside a start is not
// contained here; kway's attempt closure drops the whole Runner and the
// search pool folds the solution attempt as failed.
func (r *Runner) initialPartition(lv level, cfg Config, w bounds, target int) ([]replication.Block, LevelStats, error) {
	cg := lv.g
	tgt := target
	if tgt > w.hi {
		tgt = w.hi
	}
	var (
		best     []replication.Block
		stats    LevelStats
		area0    int
		firstErr error
	)
	ones := make([]replication.Block, cg.NumCells())
	for c := range ones {
		ones[c] = 1
	}
	if err := r.st.Rebind(cg, ones, cfg.PinExternal); err != nil {
		return nil, LevelStats{}, fmt.Errorf("multilevel: no feasible coarsest partition in %d starts (first failure: %w)", cfg.Starts, err)
	}
	for i := 0; i < cfg.Starts; i++ {
		seed := cfg.Seed + int64(i)*startStride
		assign := r.cluster.Assign(nil, &r.st, seed, tgt)
		rep, err := repair(cg, assign, w, seed)
		if err == nil {
			err = r.st.ResetPinned(assign, cfg.PinExternal)
		}
		var res fm.Result
		cutInit := 0
		if err == nil {
			cutInit = r.st.CutSize()
			res, err = r.fm.Run(&r.st, cfg.levelFM(w, seed))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cut, a0 := r.st.CutSize(), r.st.Area(0)
		if best != nil && (cut > stats.CutRefined || cut == stats.CutRefined && absDiff(a0, tgt) >= absDiff(area0, tgt)) {
			continue
		}
		for c := range assign {
			assign[c] = r.st.Home(hypergraph.CellID(c))
		}
		best, area0 = assign, a0
		stats = LevelStats{
			Cells: cg.NumCells(), Nets: cg.NumNets(), ClusterCap: lv.cap,
			CutProjected: cutInit, CutRefined: cut, Area0: a0,
			RepairMoves: rep, Moves: res.Moves, Passes: res.Passes,
		}
	}
	if best == nil {
		return nil, LevelStats{}, fmt.Errorf("multilevel: no feasible coarsest partition in %d starts (first failure: %w)", cfg.Starts, firstErr)
	}
	return best, stats, nil
}

// refineLevel repairs a projected assignment into the level's window
// and runs one plain-FM refinement over it on r's state, which holds
// the refined level on return.
func (r *Runner) refineLevel(lv level, assign []replication.Block, cfg Config, w bounds, l int) (LevelStats, error) {
	rep, rerr := repair(lv.g, assign, w, cfg.Seed+int64(l+1)*refineStride)
	if rerr != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d: %w", l, rerr)
	}
	if err := r.st.Rebind(lv.g, assign, cfg.PinExternal); err != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d: %w", l, err)
	}
	cutProj := r.st.CutSize()
	res, err := r.fm.Run(&r.st, cfg.levelFM(w, cfg.Seed+int64(l+1)*refineStride))
	if err != nil {
		return LevelStats{}, fmt.Errorf("multilevel: level %d refinement: %w", l, err)
	}
	return LevelStats{
		Level: l, Cells: lv.g.NumCells(), Nets: lv.g.NumNets(), ClusterCap: lv.cap,
		CutProjected: cutProj, CutRefined: r.st.CutSize(), Area0: r.st.Area(0),
		RepairMoves: rep, Moves: res.Moves, Passes: res.Passes,
	}, nil
}

// repair nudges an assignment's block-0 area into [w.lo, w.hi] with
// deterministic seeded greedy moves. Projection preserves areas
// exactly, so repair only runs when the window tightened since the
// coarser level (slack shrinks descending); FM then recovers the cut
// damage. An empty return means the assignment was already in window.
func repair(g *hypergraph.Graph, assign []replication.Block, w bounds, seed int64) (int, error) {
	area0 := areaOf(g, assign)
	if area0 >= w.lo && area0 <= w.hi {
		return 0, nil
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(assign))
	moves := 0
	for area0 < w.lo {
		moved := false
		for _, ci := range perm {
			if assign[ci] != 1 {
				continue
			}
			a := g.Cells[ci].Area
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
			a := g.Cells[ci].Area
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

func areaOf(g *hypergraph.Graph, assign []replication.Block) int {
	area := 0
	for c := range assign {
		if assign[c] == 0 {
			area += g.Cells[c].Area
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
