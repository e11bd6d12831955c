package kway_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// vcycleWork is the carve, V-cycle and FM work of one traced search:
// accepted carves and rejections by reason, parallel and serial FM
// passes and the moves they report, fresh and narrowed coarsenings and
// refined levels. The search TestVCycleWork runs is deterministic, so
// the counts are exact; a change that moves them changes what the
// search does.
type vcycleWork struct {
	Accepted    int            `json:"accepted"`
	Rejected    map[string]int `json:"rejected"`
	ParfmPasses int            `json:"parfm_passes"`
	FMPasses    int            `json:"fm_passes"`
	PassMoves   int            `json:"pass_moves"`
	// Coarsen counts the V-cycles that coarsened afresh, Narrowed those
	// that narrowed the previous carve's hierarchy; rows written before
	// V-cycles narrowed decode Narrowed as zero.
	Coarsen  int `json:"coarsen"`
	Narrowed int `json:"narrowed"`
	Levels   int `json:"levels"`
}

// coarsenings counts a search's fresh and narrowed coarsenings from
// its events and checks where the narrowed ones happened. Only an
// attempt's first V-cycle on a new remainder may narrow, the remainder
// an accepted carve whose try ran a V-cycle left: an attempt's first
// carve and every retry on the same remainder must coarsen afresh.
// Each attempt's events arrive in order, so they can be followed per
// attempt however the attempts interleave. retries counts the V-cycles
// run by a retry, so that a caller can require the rule to have been
// exercised.
func coarsenings(t *testing.T, events []trace.Event) (fresh, narrowed, retries int) {
	t.Helper()
	type attempt struct{ coarsened, mayNarrow, retry bool }
	at := map[int]*attempt{}
	for _, e := range events {
		a := at[e.Attempt]
		if a == nil {
			a = &attempt{}
			at[e.Attempt] = a
		}
		switch {
		case e.Kind == trace.KindPhase && e.Phase == trace.PhaseCoarsen:
			if e.Level > 0 && !a.mayNarrow {
				t.Errorf("attempt %d: a V-cycle narrowed %d levels without a new remainder", e.Attempt, e.Level)
			}
			if e.Level > 0 {
				narrowed++
			} else {
				fresh++
			}
			if a.retry {
				retries++
			}
			a.coarsened, a.mayNarrow = true, false
		case e.Kind == trace.KindCarveAccepted:
			a.coarsened, a.mayNarrow, a.retry = false, a.coarsened, false
		case e.Kind == trace.KindCarveRejected:
			a.coarsened, a.retry = false, true
		}
	}
	return fresh, narrowed, retries
}

// vcycleAllocCeiling bounds the bytes a warm Partition call allocates
// on that search: 6.08 MB measured (go1.24, linux/amd64), plus 25%.
// A graph built per V-cycle level or per remainder puts it far above.
const vcycleAllocCeiling = 7_600_000

func vcycleCircuit(t *testing.T) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "vc2000", Cells: 2000, PrimaryIn: 40, PrimaryOut: 30,
		DFFs: 600, Clustering: 0.6, Seed: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func vcycleOptions(workers int) kway.Options {
	return kway.Options{
		Multilevel: true, MultilevelMinCells: 128, RefineWorkers: 2,
		Solutions: 4, Workers: workers, Seed: 11,
	}
}

// traceVCycle runs the search with spans and a recorder armed and
// counts its work from the events and the finished spans, and the
// V-cycles its retries ran.
func traceVCycle(t *testing.T, g *hypergraph.Graph, opts kway.Options) (w vcycleWork, retries int) {
	t.Helper()
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test", MaxSpansPerTrace: 1 << 22})
	id := span.DeriveTraceID("vcycle-work", opts.Seed, opts.Solutions)
	opts.Spans = tracer.Root(id, 0).WithSink(rec)
	if _, err := kway.Partition(g, opts); err != nil {
		t.Fatal(err)
	}
	w = vcycleWork{Rejected: map[string]int{}}
	w.Coarsen, w.Narrowed, retries = coarsenings(t, rec.Events())
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindLevel:
			w.Levels++
		case trace.KindFMPass:
			w.PassMoves += e.Moves
		case trace.KindCarveAccepted:
			w.Accepted++
		case trace.KindCarveRejected:
			w.Rejected[e.Reason]++
		}
	}
	w.ParfmPasses, w.FMPasses = passSpans(t, tracer, id)
	return w, retries
}

// recordEvents arms opts' spans with a fresh recorder as their sink
// and returns it: events need armed spans.
func recordEvents(opts *kway.Options) *trace.Recorder {
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	opts.Spans = tracer.Root(span.DeriveTraceID("kway-test", opts.Seed, opts.Solutions), 0).WithSink(rec)
	return rec
}

// passSpans counts the parallel and the serial FM pass spans of trace
// id.
func passSpans(t *testing.T, tracer *span.Tracer, id span.TraceID) (parfm, serial int) {
	t.Helper()
	spans, dropped := tracer.Collector().Trace(id)
	if dropped > 0 {
		t.Fatalf("the collector dropped %d spans", dropped)
	}
	for _, sp := range spans {
		switch sp.Name {
		case "parfm-pass":
			parfm++
		case "fm-pass":
			serial++
		}
	}
	return parfm, serial
}

// TestVCycleWork pins the work of a fixed-seed V-cycle search on a
// generated 2000-cell circuit (MultilevelMinCells 128, RefineWorkers 2,
// 4 solutions) to the work ledger's last row. Every state it refines
// is below fm's parallel cutoff, so its passes are serial;
// TestParfmWork pins the parallel ones. The search must narrow some
// hierarchies, retry some V-cycle carves and coarsen afresh where
// coarsenings requires. The counts must not depend on GOMAXPROCS (1 or
// 2) or on the search's worker count (1 or 2). Without the race
// detector it also bounds the bytes one warm single-worker Partition
// call allocates.
func TestVCycleWork(t *testing.T) {
	want := lastLedgerRow(t).VCycle
	g := vcycleCircuit(t)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				w, retries := traceVCycle(t, g, vcycleOptions(workers))
				t.Logf("work: %+v", w)
				if w.Narrowed == 0 || retries == 0 {
					t.Errorf("%d narrowed coarsenings and %d V-cycle retries, want some of each", w.Narrowed, retries)
				}
				if !reflect.DeepEqual(w, want) {
					t.Errorf("work %+v, want %+v", w, want)
				}
			})
		}
	}
	runtime.GOMAXPROCS(prev)

	if raceEnabled {
		return
	}
	plain := vcycleOptions(1)
	if _, err := kway.Partition(g, plain); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := kway.Partition(g, plain); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm Partition allocates %d bytes", bytes)
	if bytes > vcycleAllocCeiling {
		t.Errorf("warm Partition allocates %d bytes, ceiling %d", bytes, vcycleAllocCeiling)
	}
}
