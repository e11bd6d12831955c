package main

import (
	"fmt"
	"runtime"
	"time"

	"fpgapart/internal/span"
)

// config is one workload run as the command line asked for it.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	quick    bool
}

// minOps is the fewest ops a run makes: one, or one untraced and one
// traced op in a traced run.
func (c config) minOps() int {
	if c.trace {
		return 2
	}
	return 1
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it. setupsBefore of them
// run before the ops and the rest after, so the median samples the
// machine twice, about a run's length apart.
const (
	setupReps    = 15
	setupsBefore = 8
)

// opSample is one CLI op's cost.
type opSample struct {
	wall, cpu time.Duration
	allocB    uint64
}

// result collects what one workload run measured.
type result struct {
	attempted, failed int
	errs              []string

	setupS, readMS []float64
	// plain and traced hold the CLI ops; kpartd-coord fills latMS and
	// tracedLatMS per job instead, and cpuS/allocMB per job once.
	plain, traced      []opSample
	latMS, tracedLatMS []float64
	cpuS, allocMB      []float64
	opsPerS            float64
	ops                int
	attempts, feasible int
	deviceCost, iob    float64
	topoCost, gcCycles float64
	verifyOps          int
	rpcBytes           float64
	appends, fsyncMS   float64
	agg                *spanAgg
}

func newResult() *result {
	return &result{agg: newSpanAgg()}
}

// timeSetup times one set-up, fn, under a "setup" root span. Each
// set-up starts from a collected heap, so garbage left by the previous
// one is not paid for inside this one.
func (r *result) timeSetup(tr *tracer, traced bool, rep int, fn func(span.Scope) error) error {
	runtime.GC()
	t0 := time.Now()
	root := tr.scope(traced, "setup", int64(rep))
	err := fn(root.Scope())
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	root.End()
	r.readMS = append(r.readMS, tr.total(root, "hypergraph.Read")*1000)
	return err
}

// fail counts a failed op and keeps its reason.
func (r *result) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// finishCLI turns the CLI op samples into the per-op series.
func (r *result) finishCLI() {
	var wall time.Duration
	for _, s := range r.plain {
		r.latMS = append(r.latMS, float64(s.wall)/float64(time.Millisecond))
		r.cpuS = append(r.cpuS, s.cpu.Seconds())
		r.allocMB = append(r.allocMB, float64(s.allocB)/(1<<20))
		wall += s.wall
	}
	for _, s := range r.traced {
		r.tracedLatMS = append(r.tracedLatMS, float64(s.wall)/float64(time.Millisecond))
	}
	if wall > 0 {
		r.opsPerS = float64(len(r.plain)) / wall.Seconds()
	}
	r.verifyOps = len(r.traced)
}

// endToEnd is the metric set of an untraced run.
func (r *result) endToEnd() []stat {
	n := len(r.latMS)
	return []stat{
		summarize("setup_s", "s", r.setupS),
		summarize("latency_ms", "ms", r.latMS),
		single("latency_p90_ms", "ms", nearestRank(r.latMS, 0.9), n),
		single("ops_per_s", "1/s", r.opsPerS, n),
		summarize("cpu_s_per_op", "s", r.cpuS),
		summarize("alloc_mb_per_op", "MB", r.allocMB),
		single("peak_rss_mb", "MB", peakRSSMB(), 1),
		single("device_cost", "dollars", r.deviceCost, n),
		single("avg_iob_util", "ratio", r.iob, n),
	}
}

// perLayer is the metric set of a traced run. Layers a workload does
// not exercise read 0.
func (r *result) perLayer() []stat {
	a := r.agg
	ops := float64(max(r.ops, 1))
	tops := float64(max(len(r.tracedLatMS), 1))
	per := func(name, unit string, v, n float64) stat { return single(name, unit, v/n, int(n)) }
	busy := 0.0
	if a.searchS > 0 {
		// Every front-process search, the coordinator's included, runs
		// searchWorkers attempts at a time.
		busy = a.attemptS / (a.searchS * searchWorkers)
	}
	feasibleRatio := 0.0
	if r.attempts > 0 {
		feasibleRatio = float64(r.feasible) / float64(r.attempts)
	}
	overhead := 0.0
	if base := median(r.latMS); base > 0 {
		overhead = 100 * (median(r.tracedLatMS) - base) / base
	}
	return []stat{
		summarize("hypergraph.read_ms", "ms", r.readMS),
		single("search.busy_ratio", "ratio", busy, int(tops)),
		per("kway.attempts", "count", float64(r.attempts), ops),
		single("kway.feasible_ratio", "ratio", feasibleRatio, r.attempts),
		per("kway.attempt_self_s", "s", a.row("attempt").SelfS, tops),
		per("kway.fold_self_s", "s", a.row("fold").SelfS, tops),
		per("fm.passes", "count", float64(a.row("fm-pass").Count), tops),
		per("fm.pass_self_s", "s", a.row("fm-pass").SelfS, tops),
		per("parfm.passes", "count", float64(a.row("parfm-pass").Count), tops),
		per("parfm.pass_self_s", "s", a.row("parfm-pass").SelfS, tops),
		per("multilevel.coarsen_calls", "count", float64(a.row("coarsen").Count), tops),
		per("multilevel.coarsen_self_s", "s", a.row("coarsen").SelfS, tops),
		per("multilevel.level_self_s", "s", a.row("level").SelfS, tops),
		per("multilevel.uncoarsen_self_s", "s", a.row("uncoarsen").SelfS, tops),
		per("verify.partition_ms", "ms", 1000*a.row("Result.Verify").TotalS, float64(max(r.verifyOps, 1))),
		per("verify.routing_ms", "ms", 1000*a.row("verify.Routing").TotalS, tops),
		single("topology.topo_cost", "count", r.topoCost, r.ops),
		per("coord.rpcs_per_job", "count", float64(a.row("rpc").Count), tops),
		single("coord.rpc_self_ms_p50", "ms", 1000*median(a.selfs["rpc"]), len(a.selfs["rpc"])),
		single("coord.rpc_bytes_per_job", "bytes", r.rpcBytes, int(tops)),
		single("server.job_self_ms_p50", "ms", 1000*median(a.selfs["job"]), len(a.selfs["job"])),
		single("jobstore.appends_per_job", "count", r.appends, int(tops)),
		single("jobstore.fsync_ms_per_job", "ms", r.fsyncMS, int(tops)),
		per("go.gc_cycles_per_op", "count", r.gcCycles, ops),
		single("span.overhead_pct", "%", overhead, len(r.tracedLatMS)),
	}
}

// tracer is kbench's own span tracer. It sizes its collector so no
// span of one op is dropped: c5315 alone records ~95k fm-pass spans,
// far past the default per-trace cap of 8192.
type tracer struct{ t *span.Tracer }

// Collector bounds of every tracer kbench owns. An op's trace is folded
// as soon as the op ends, so only a few traces are ever held.
const (
	maxTraces        = 16
	maxSpansPerTrace = 1 << 24
)

func newSpanTracer(process string) *span.Tracer {
	return span.NewTracer(span.Options{Process: process, MaxTraces: maxTraces, MaxSpansPerTrace: maxSpansPerTrace})
}

func newTracer(process string) *tracer { return &tracer{t: newSpanTracer(process)} }

// scope opens the root span of a new trace for one op or set-up, or
// returns the disarmed zero value when armed is false.
func (t *tracer) scope(armed bool, kind string, i int64) span.Running {
	if !armed {
		return span.Running{}
	}
	return t.t.Root(span.DeriveTraceID("kbench/"+kind, i, 0), 0).Start(kind, -1)
}

// spans returns the complete trace rooted at root, failing when the
// collector dropped any of it.
func (t *tracer) spans(root span.Running) ([]span.Span, error) {
	id := root.Scope().TraceID()
	if id.IsZero() {
		return nil, nil
	}
	spans, dropped := t.t.Collector().Trace(id)
	if dropped > 0 {
		return nil, fmt.Errorf("span collector dropped %d spans of trace %s", dropped, id)
	}
	return spans, nil
}

// total sums the durations of the spans called name in root's trace.
func (t *tracer) total(root span.Running, name string) float64 {
	spans, _ := t.spans(root)
	s := 0.0
	for _, sp := range spans {
		if sp.Name == name {
			s += sp.Dur.Seconds()
		}
	}
	return s
}

// fold adds root's trace to agg.
func (t *tracer) fold(root span.Running, agg *spanAgg, front string) error {
	spans, err := t.spans(root)
	if err != nil {
		return err
	}
	agg.add(spans, front)
	return nil
}
