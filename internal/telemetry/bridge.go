package telemetry

import (
	"fpgapart/internal/trace"
)

// Engine metric names. One vocabulary serves the daemon's /metrics
// endpoint and kpart's -metrics-out snapshot, so batch runs and the
// service can be compared with the same queries.
const (
	MetricCarveAccepted  = "fpgapart_carve_accepted_total"
	MetricCarveRejected  = "fpgapart_carve_rejected_total"
	MetricFMPasses       = "fpgapart_fm_passes_total"
	MetricFMMoves        = "fpgapart_fm_moves_total"
	MetricFMCutAfterPass = "fpgapart_fm_cut_after_pass"
	MetricFMMovesPerPass = "fpgapart_fm_moves_per_pass"
	MetricReplicas       = "fpgapart_replicas_total"
	MetricRollbacks      = "fpgapart_rollbacks_total"
	MetricSolutions      = "fpgapart_solutions_total"
	MetricImproved       = "fpgapart_solutions_improved_total"
	MetricPanics         = "fpgapart_attempt_panics_total"
	MetricPhaseSeconds   = "fpgapart_phase_seconds"
	MetricLevels         = "fpgapart_multilevel_levels_total"
	MetricLevelCells     = "fpgapart_multilevel_level_cells"
	MetricLevelCut       = "fpgapart_multilevel_cut_after_refine"

	MetricParRounds        = "fpgapart_parfm_rounds_total"
	MetricParProposals     = "fpgapart_parfm_proposals_total"
	MetricParCommits       = "fpgapart_parfm_commits_total"
	MetricParStale         = "fpgapart_parfm_stale_total"
	MetricParCommitsPerRnd = "fpgapart_parfm_commits_per_round"

	// Topology metrics, populated only on board-backed runs (solution
	// events with HasTopo; see internal/topology and BoardGauges).
	MetricTopoBest     = "fpgapart_best_topo_cost"
	MetricTopoCost     = "fpgapart_solution_topo_cost"
	MetricLinkLoad     = "fpgapart_board_link_load"
	MetricLinkCapacity = "fpgapart_board_link_capacity"

	// Durability metrics, populated only when a job store arms search
	// checkpointing (KindCheckpoint/KindResume trace events).
	MetricCheckpoints = "fpgapart_search_checkpoints_total"
	MetricResumes     = "fpgapart_search_resumes_total"
)

// rejectReasons are the static carve-rejection codes emitted by the
// kway engine; anything else lands on "other" so the hot path never
// creates series.
var rejectReasons = []string{trace.RejectNoDevice, trace.RejectFM, trace.RejectTerminals}

// phaseNames are the static engine phases; anything else lands on
// "other".
var phaseNames = []string{
	trace.PhaseParse, trace.PhaseSearch, trace.PhaseVerify, trace.PhaseFold,
	trace.PhaseCoarsen, trace.PhaseUncoarsen,
}

// Bridge adapts the engine's trace stream (internal/trace) into
// registry metrics: carve accept/reject by reason, FM work and
// cut-after-pass distributions, replication/rollback totals, solution
// outcomes, contained-panic counts and phase latency histograms.
//
// Event is lock-free and allocation-free at steady state: every series
// is resolved at construction (static reason/phase vocabularies map to
// pre-built counters), so the hot path performs only map lookups on
// interned strings and atomic adds — proven by TestBridgeEventAllocs
// and the fm package's traced-variant allocation test.
type Bridge struct {
	carveAccepted *Counter
	carveRejected map[string]*Counter
	rejectedOther *Counter

	fmPasses     *Counter
	fmMoves      *Counter
	cutAfterPass *Histogram
	movesPerPass *Histogram

	replicas  *Counter
	rollbacks *Counter

	solutions  map[bool]*Counter // by feasibility
	improved   *Counter
	panics     *Counter
	phase      map[string]*Histogram
	phaseOther *Histogram

	levels     *Counter
	levelCells *Histogram
	levelCut   *Histogram

	parRounds        *Counter
	parProposals     *Counter
	parCommits       *Counter
	parStale         *Counter
	parCommitsPerRnd *Histogram

	topoBest *Gauge
	topoCost *Histogram

	checkpoints *Counter
	resumes     *Counter
}

// NewBridge registers the engine metric families on r and returns the
// sink. Multiple bridges may share one registry only if they use
// disjoint metric names; the intended shape is one bridge per process.
func NewBridge(r *Registry) *Bridge {
	b := &Bridge{
		carveAccepted: r.Counter(MetricCarveAccepted, "Carve attempts whose block satisfied its host device."),
		carveRejected: make(map[string]*Counter, len(rejectReasons)),
		fmPasses:      r.Counter(MetricFMPasses, "Completed FM passes."),
		fmMoves:       r.Counter(MetricFMMoves, "FM moves applied before best-prefix rollback."),
		cutAfterPass:  r.Histogram(MetricFMCutAfterPass, "Cut size after each FM pass (post-rollback).", ExpBuckets(1, 2, 13)),
		movesPerPass:  r.Histogram(MetricFMMovesPerPass, "Moves applied per FM pass.", ExpBuckets(1, 2, 13)),
		replicas:      r.Counter(MetricReplicas, "Replica instances created by carve attempts."),
		rollbacks:     r.Counter(MetricRollbacks, "Replication-state rollbacks performed by carve attempts."),
		solutions:     make(map[bool]*Counter, 2),
		improved:      r.Counter(MetricImproved, "Feasible solutions that became the incumbent best."),
		panics:        r.Counter(MetricPanics, "Solution attempts that died to a contained panic."),
		phase:         make(map[string]*Histogram, len(phaseNames)),
		levels:        r.Counter(MetricLevels, "Completed uncoarsening levels of multilevel runs."),
		levelCells:    r.Histogram(MetricLevelCells, "Coarse cell count per completed uncoarsening level.", ExpBuckets(1, 4, 12)),
		levelCut:      r.Histogram(MetricLevelCut, "Cut size after each level's FM refinement.", ExpBuckets(1, 2, 13)),

		parRounds:        r.Counter(MetricParRounds, "Parallel-refinement sub-rounds executed."),
		parProposals:     r.Counter(MetricParProposals, "Move proposals evaluated by parallel-refinement workers."),
		parCommits:       r.Counter(MetricParCommits, "Proposals committed by the parallel-refinement committer."),
		parStale:         r.Counter(MetricParStale, "Proposals invalidated by an earlier commit's neighborhood."),
		parCommitsPerRnd: r.Histogram(MetricParCommitsPerRnd, "Commits applied per parallel-refinement sub-round.", ExpBuckets(1, 2, 8)),

		topoBest: r.Gauge(MetricTopoBest, "Hop-weighted interconnect of the incumbent best solution (board-backed runs only)."),
		topoCost: r.Histogram(MetricTopoCost, "Hop-weighted interconnect per feasible solution (board-backed runs only).", ExpBuckets(1, 2, 16)),

		checkpoints: r.Counter(MetricCheckpoints, "Search checkpoints persisted by the index-ordered reducer."),
		resumes:     r.Counter(MetricResumes, "Searches restarted from a persisted checkpoint."),
	}
	rej := r.CounterVec(MetricCarveRejected, "Carve attempts rejected, by static rejection code.", "reason")
	for _, reason := range rejectReasons {
		b.carveRejected[reason] = rej.With(reason)
	}
	b.rejectedOther = rej.With("other")
	sol := r.CounterVec(MetricSolutions, "Folded solution attempts, by feasibility.", "feasible")
	b.solutions[true] = sol.With("true")
	b.solutions[false] = sol.With("false")
	ph := r.HistogramVec(MetricPhaseSeconds, "Wall-clock duration of engine phases.", LatencyBuckets(), "phase")
	for _, name := range phaseNames {
		b.phase[name] = ph.With(name)
	}
	b.phaseOther = ph.With("other")
	return b
}

// Work totals the FM and carve work the bridge has counted so far.
type Work struct {
	Passes, Moves          int64
	Carves, RejectedCarves int64
	Replicas, Rollbacks    int64
}

// Work returns the current FM and carve totals.
func (b *Bridge) Work() Work {
	w := Work{
		Passes: b.fmPasses.Value(), Moves: b.fmMoves.Value(),
		Carves: b.carveAccepted.Value(), RejectedCarves: b.rejectedOther.Value(),
		Replicas: b.replicas.Value(), Rollbacks: b.rollbacks.Value(),
	}
	for _, c := range b.carveRejected {
		w.RejectedCarves += c.Value()
	}
	return w
}

// Event implements trace.Sink.
func (b *Bridge) Event(e trace.Event) {
	switch e.Kind {
	case trace.KindFMPass:
		b.fmPasses.Inc()
		b.fmMoves.Add(int64(e.Moves))
		b.cutAfterPass.Observe(float64(e.Cut))
		b.movesPerPass.Observe(float64(e.Moves))
	case trace.KindCarveAccepted:
		b.carveAccepted.Inc()
		b.replicas.Add(int64(e.Replicas))
		b.rollbacks.Add(int64(e.Rollbacks))
	case trace.KindCarveRejected:
		c, ok := b.carveRejected[e.Reason]
		if !ok {
			c = b.rejectedOther
		}
		c.Inc()
		b.replicas.Add(int64(e.Replicas))
		b.rollbacks.Add(int64(e.Rollbacks))
	case trace.KindSolution:
		b.solutions[e.Feasible].Inc()
		if e.Improved {
			b.improved.Inc()
		}
		if e.Panic {
			b.panics.Inc()
		}
		if e.HasTopo && e.Feasible {
			b.topoCost.Observe(float64(e.Topo))
			if e.Improved {
				b.topoBest.Set(int64(e.Topo))
			}
		}
	case trace.KindPhase:
		h, ok := b.phase[e.Phase]
		if !ok {
			h = b.phaseOther
		}
		h.Observe(e.Dur.Seconds())
	case trace.KindLevel:
		b.levels.Inc()
		b.levelCells.Observe(float64(e.Cells))
		b.levelCut.Observe(float64(e.Cut))
	case trace.KindParRound:
		b.parRounds.Inc()
		b.parProposals.Add(int64(e.Proposals))
		b.parCommits.Add(int64(e.Commits))
		b.parStale.Add(int64(e.Stale))
		b.parCommitsPerRnd.Observe(float64(e.Commits))
	case trace.KindCheckpoint:
		b.checkpoints.Inc()
	case trace.KindResume:
		b.resumes.Inc()
	}
}
