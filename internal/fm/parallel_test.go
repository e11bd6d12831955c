package fm

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// parCfg is the balanced configuration of the parallel sub-round
// engine with the given proposal worker count.
func parCfg(g *hypergraph.Graph, threshold int, workers int) Config {
	cfg := equalCfg(g, threshold, 0)
	cfg.RefineWorkers = workers
	return cfg
}

// sinkScope returns an armed span scope sending its events to sink:
// events need armed spans.
func sinkScope(sink trace.Sink) span.Scope {
	tracer := span.NewTracer(span.Options{Process: "fm-test"})
	return tracer.Root(span.DeriveTraceID("fm-test", 0, 0), 0).WithSink(sink)
}

// checkRoundTotals cross-checks a parallel run's sub-round events
// against its result: the committed moves total the result's moves,
// and — bucketed proposals persist across sub-rounds — commits plus
// stale rejections never exceed the proposals made so far.
func checkRoundTotals(t *testing.T, rounds []trace.Event, res Result) {
	t.Helper()
	proposals, commits, stale := 0, 0, 0
	for _, e := range rounds {
		proposals += e.Proposals
		commits += e.Commits
		stale += e.Stale
		if commits+stale > proposals {
			t.Fatalf("through round event %+v: %d commits+stale exceed %d proposals", e, commits+stale, proposals)
		}
	}
	if commits != res.Moves {
		t.Fatalf("round events total %d commits, result says %d moves", commits, res.Moves)
	}
}

// The tentpole invariant: for a fixed initial assignment the final
// partition, the run result and the trace stream are identical for
// every worker count. The 2600-cell graph clears minParallel, so Run
// gives it the parallel engine, and GOMAXPROCS is raised so that every
// count up to 8 really shards the proposal scans; 2¹⁰ workers must be
// capped at GOMAXPROCS shards.
func TestWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, threshold := range []int{NoReplication, 0} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			g := testGraph(t, 2600, 4, 0.5)
			assign := RandomAssign(g, 7)
			var (
				want       string
				wantRes    Result
				wantEvents []trace.Event
			)
			for _, workers := range []int{2, 3, 5, 8, 1 << 10} {
				st, err := replication.NewState(g, assign)
				if err != nil {
					t.Fatal(err)
				}
				rec := &trace.Recorder{}
				cfg := parCfg(g, threshold, workers)
				cfg.Spans = sinkScope(rec)
				var r Runner
				res, err := r.Run(st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				n := g.NumCells()
				chunk := r.par.chunk(n)
				if shards, limit := (n+chunk-1)/chunk, min(workers, runtime.GOMAXPROCS(0)); shards != limit {
					t.Fatalf("workers=%d: %d proposal shards, want %d", workers, shards, limit)
				}
				sig, events := partitionSig(st), rec.Events()
				if want == "" {
					want, wantRes, wantEvents = sig, res, events
					continue
				}
				if sig != want {
					t.Fatalf("workers=%d: partition diverged from workers=2", workers)
				}
				if res != wantRes {
					t.Fatalf("workers=%d: result %+v, workers=2 got %+v", workers, res, wantRes)
				}
				if !slices.Equal(events, wantEvents) {
					t.Fatalf("workers=%d: trace stream diverged from workers=2", workers)
				}
			}
		})
	}
}

// The partition must also be independent of GOMAXPROCS — scheduling
// interleavings must not leak into results.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := testGraph(t, 2600, 9, 0.5)
	assign := RandomAssign(g, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := new(Runner).Run(st, parCfg(g, 0, 4)); err != nil {
			t.Fatal(err)
		}
		if sig := partitionSig(st); want == "" {
			want = sig
		} else if sig != want {
			t.Fatalf("GOMAXPROCS=%d: partition diverged", procs)
		}
	}
}

// Repeating a run from the same initial assignment must reproduce the
// identical result, including the trace stream.
func TestRepeatableTrace(t *testing.T) {
	g := testGraph(t, 800, 2, 0.5)
	assign := RandomAssign(g, 5)
	run := func() (string, []trace.Event) {
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		cfg := parCfg(g, 0, 4)
		cfg.Spans = sinkScope(rec)
		cfg.TraceAttempt = -1
		if _, err := new(Runner).run(st, cfg, true); err != nil {
			t.Fatal(err)
		}
		return partitionSig(st), rec.Events()
	}
	sig1, ev1 := run()
	sig2, ev2 := run()
	if sig1 != sig2 {
		t.Fatal("repeat run diverged")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("trace streams differ in length: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}

// The run must leave a consistent state: invariants hold, the
// maintained single-move gains included, areas sit inside the bounds,
// the cut never regresses past the initial one, and the sub-round
// events account for every committed move.
func TestRunConsistency(t *testing.T) {
	for _, threshold := range []int{NoReplication, 0, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			g := testGraph(t, 600, seed, 0.5)
			st, err := replication.NewState(g, RandomAssign(g, seed))
			if err != nil {
				t.Fatal(err)
			}
			before := st.CutSize()
			rec := &trace.Recorder{}
			cfg := parCfg(g, threshold, 4)
			cfg.Spans = sinkScope(rec)
			res, err := new(Runner).run(st, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("threshold %d seed %d: %v", threshold, seed, err)
			}
			if res.Cut != st.CutSize() {
				t.Fatalf("result cut %d, state cut %d", res.Cut, st.CutSize())
			}
			if res.Cut > before {
				t.Fatalf("cut regressed: %d -> %d", before, res.Cut)
			}
			for b := replication.Block(0); b < 2; b++ {
				if a := st.Area(b); a < cfg.MinArea[b] || a > cfg.MaxArea[b] {
					t.Fatalf("block %d area %d outside [%d,%d]", b, a, cfg.MinArea[b], cfg.MaxArea[b])
				}
			}
			checkRoundTotals(t, rec.Filter(trace.KindParRound), res)
		}
	}
}

// Sub-round and pass trace events must be internally consistent,
// carry the run's attempt label and total up to the run result.
func TestSubRoundTraceAccounting(t *testing.T) {
	g := testGraph(t, 900, 6, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 11))
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	cfg := parCfg(g, 0, 3)
	cfg.Spans = sinkScope(rec)
	cfg.TraceAttempt = 42
	res, err := new(Runner).run(st, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	rounds := rec.Filter(trace.KindParRound)
	if len(rounds) == 0 {
		t.Fatal("no sub-round events recorded")
	}
	for _, e := range rounds {
		if e.Attempt != 42 {
			t.Fatalf("round event attempt %d, want 42", e.Attempt)
		}
	}
	checkRoundTotals(t, rounds, res)
	passes := rec.Filter(trace.KindFMPass)
	if len(passes) != res.Passes {
		t.Fatalf("%d pass events, result says %d", len(passes), res.Passes)
	}
	movesTotal := 0
	for _, e := range passes {
		movesTotal += e.Moves
	}
	if movesTotal != res.Moves {
		t.Fatalf("pass events total %d moves, result says %d", movesTotal, res.Moves)
	}
}

// A fault injected at a pass boundary must abort the run with the
// typed error, before the pass its ordinal names (here the second),
// and leave a consistent state, maintained gains included — parity
// with the serial engine's injection site.
func TestFaultInjectionAtPass(t *testing.T) {
	g := testGraph(t, 400, 3, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parCfg(g, NoReplication, 2)
	cfg.TraceAttempt = 0
	cfg.Inject = faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SitePass, Kind: faultinject.KindCancel,
		Attempt: faultinject.Any, Index: 1,
	})
	res, err := new(Runner).run(st, cfg, true)
	var cancel *faultinject.CancelError
	if !errors.As(err, &cancel) {
		t.Fatalf("want CancelError, got %v", err)
	}
	if res.Passes != 1 {
		t.Fatalf("fault at pass ordinal 1 fired after %d passes", res.Passes)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("after injected fault: %v", err)
	}
}

// spannedRun runs st under cfg with armed spans and returns the result,
// the partition and the names of the pass spans the run finished.
func spannedRun(t *testing.T, st *replication.State, cfg Config, run func(*replication.State, Config) (Result, error)) (Result, string, []string) {
	t.Helper()
	tracer := span.NewTracer(span.Options{Process: "fm-test"})
	id := span.DeriveTraceID("dispatch", 0, 0)
	cfg.Spans = tracer.Root(id, 0)
	res, err := run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans, dropped := tracer.Collector().Trace(id)
	if dropped > 0 {
		t.Fatalf("the collector dropped %d spans", dropped)
	}
	var names []string
	for _, sp := range spans {
		names = append(names, sp.Name)
	}
	return res, partitionSig(st), names
}

// Run sends RefineWorkers >= 2 to the parallel engine only on states of
// at least minParallel cells. A smaller state gets exactly what
// RefineWorkers 0 gives it: the same cut, partition, pass and move
// counts, and fm-pass spans. A state at the cutoff, or the state of
// TestWorkerCountInvariance (2611 cells), runs the parallel pass
// exactly as the engine driven directly does.
func TestRunDispatchesOnCellCount(t *testing.T) {
	for _, tc := range []struct {
		size  int // the generator's cell target, which it may overshoot
		seed  int64
		cells int
	}{{300, 4, 300}, {minParallel - 1, 1, minParallel - 1}, {minParallel, 4, minParallel}, {2600, 4, 2611}} {
		cells := tc.cells
		g := testGraph(t, tc.size, tc.seed, 0.5)
		if g.NumCells() != cells {
			t.Fatalf("generated %d cells, want %d", g.NumCells(), cells)
		}
		assign := RandomAssign(g, 7)
		for _, threshold := range []int{NoReplication, 0} {
			at := fmt.Sprintf("%d cells T=%d", cells, threshold)
			fresh := func() *replication.State {
				st, err := replication.NewState(g, assign)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			cfg := equalCfg(g, threshold, 3)
			var want Result
			var wantSig string
			var wantSpans []string
			if cells < minParallel {
				want, wantSig, wantSpans = spannedRun(t, fresh(), cfg, new(Runner).Run)
			} else {
				want, wantSig, wantSpans = spannedRun(t, fresh(), parCfg(g, threshold, 2), func(st *replication.State, cfg Config) (Result, error) {
					return new(Runner).run(st, cfg, true)
				})
			}
			wantName := "fm-pass"
			if cells >= minParallel {
				wantName = "parfm-pass"
			}
			if len(wantSpans) != want.Passes {
				t.Fatalf("%s: %d pass spans, %d passes", at, len(wantSpans), want.Passes)
			}
			for _, name := range wantSpans {
				if name != wantName {
					t.Fatalf("%s: span %q, want %q", at, name, wantName)
				}
			}
			for _, workers := range []int{2, 4} {
				cfg.RefineWorkers = workers
				res, sig, spans := spannedRun(t, fresh(), cfg, new(Runner).Run)
				if res != want || sig != wantSig || !slices.Equal(spans, wantSpans) {
					t.Fatalf("%s RefineWorkers %d: result %+v with spans %v, want %+v with spans %v (partition equal: %v)",
						at, workers, res, spans, want, wantSpans, sig == wantSig)
				}
			}
		}
	}
}
