package parfm_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/faultinject"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/parfm"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

func testGraph(t testing.TB, cells int, seed int64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "parfmtest", Cells: cells, PrimaryIn: 10, PrimaryOut: 6,
		Seed: seed, Clustering: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testCfg(g *hypergraph.Graph, threshold int, workers int) parfm.Config {
	minA, maxA := fm.Balance(g.TotalArea(), 0.10)
	return parfm.Config{MinArea: minA, MaxArea: maxA, Threshold: threshold, Workers: workers}
}

// sinkScope returns an armed span scope sending its events to sink:
// events need armed spans.
func sinkScope(sink trace.Sink) span.Scope {
	tracer := span.NewTracer(span.Options{Process: "parfm-test"})
	return tracer.Root(span.DeriveTraceID("parfm-test", 0, 0), 0).WithSink(sink)
}

// signature flattens the partition to a comparable string: per-cell
// ownership masks plus the cut.
func signature(st *replication.State) string {
	out := fmt.Sprintf("cut=%d;", st.CutSize())
	for ci := 0; ci < st.Graph().NumCells(); ci++ {
		c := hypergraph.CellID(ci)
		out += fmt.Sprintf("%x/%x,", st.OutputsIn(c, 0), st.OutputsIn(c, 1))
	}
	return out
}

// The tentpole invariant: for a fixed initial assignment the final
// partition is identical for every worker count. The 2600-cell graph
// clears the engine's serial-fallback cutoff so multi-worker runs
// really shard the proposal scans.
func TestWorkerCountInvariance(t *testing.T) {
	for _, threshold := range []int{parfm.NoReplication, 0} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			g := testGraph(t, 2600, 4)
			assign := fm.RandomAssign(g, 7)
			want := ""
			wantRes := parfm.Result{}
			for _, workers := range []int{1, 2, 3, 5, 8} {
				st, err := replication.NewState(g, assign)
				if err != nil {
					t.Fatal(err)
				}
				res, err := parfm.Run(st, testCfg(g, threshold, workers))
				if err != nil {
					t.Fatal(err)
				}
				sig := signature(st)
				if want == "" {
					want, wantRes = sig, res
					continue
				}
				if sig != want {
					t.Fatalf("workers=%d: partition diverged from workers=1", workers)
				}
				if res != wantRes {
					t.Fatalf("workers=%d: result %+v, workers=1 got %+v", workers, res, wantRes)
				}
			}
		})
	}
}

// The partition must also be independent of GOMAXPROCS — scheduling
// interleavings must not leak into results.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := testGraph(t, 2600, 9)
	assign := fm.RandomAssign(g, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parfm.Run(st, testCfg(g, 0, 4)); err != nil {
			t.Fatal(err)
		}
		if sig := signature(st); want == "" {
			want = sig
		} else if sig != want {
			t.Fatalf("GOMAXPROCS=%d: partition diverged", procs)
		}
	}
}

// Repeating a run from the same initial assignment must reproduce the
// identical result, including the trace stream.
func TestRepeatableTrace(t *testing.T) {
	g := testGraph(t, 800, 2)
	assign := fm.RandomAssign(g, 5)
	run := func() (string, []trace.Event) {
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		cfg := testCfg(g, 0, 4)
		cfg.Spans = sinkScope(rec)
		cfg.TraceAttempt = -1
		if _, err := parfm.Run(st, cfg); err != nil {
			t.Fatal(err)
		}
		return signature(st), rec.Events()
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

// The run must leave a consistent state: invariants hold (gain
// maintenance is restored on return), areas sit inside the bounds, and
// the cut never regresses past the initial one.
func TestRunConsistency(t *testing.T) {
	for _, threshold := range []int{parfm.NoReplication, 0, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			g := testGraph(t, 600, seed)
			st, err := replication.NewState(g, fm.RandomAssign(g, seed))
			if err != nil {
				t.Fatal(err)
			}
			before := st.CutSize()
			cfg := testCfg(g, threshold, 4)
			res, err := parfm.Run(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !st.GainMaintenance() {
				t.Fatal("gain maintenance left disabled after run")
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
			if res.Commits != res.Moves {
				t.Fatalf("commits %d != moves %d", res.Commits, res.Moves)
			}
			if res.Commits+res.Stale > res.Proposals {
				t.Fatalf("commits %d + stale %d exceed proposals %d", res.Commits, res.Stale, res.Proposals)
			}
		}
	}
}

// Sub-round trace events must be internally consistent and total up to
// the run result.
func TestSubRoundTraceAccounting(t *testing.T) {
	g := testGraph(t, 900, 6)
	st, err := replication.NewState(g, fm.RandomAssign(g, 11))
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	cfg := testCfg(g, 0, 3)
	cfg.Spans = sinkScope(rec)
	cfg.TraceAttempt = 42
	res, err := parfm.Run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := rec.Filter(trace.KindParRound)
	if len(rounds) != res.Rounds {
		t.Fatalf("%d round events, result says %d", len(rounds), res.Rounds)
	}
	proposals, commits, stale := 0, 0, 0
	for _, e := range rounds {
		if e.Attempt != 42 {
			t.Fatalf("round event attempt %d, want 42", e.Attempt)
		}
		proposals += e.Proposals
		commits += e.Commits
		stale += e.Stale
		// Bucketed proposals persist across sub-rounds, so conservation
		// holds cumulatively rather than per sub-round.
		if commits+stale > proposals {
			t.Fatalf("through round event %+v: %d commits+stale exceed %d proposals", e, commits+stale, proposals)
		}
	}
	if proposals != res.Proposals || commits != res.Commits || stale != res.Stale {
		t.Fatalf("round totals (%d,%d,%d) != result (%d,%d,%d)",
			proposals, commits, stale, res.Proposals, res.Commits, res.Stale)
	}
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

func TestRunValidation(t *testing.T) {
	g := testGraph(t, 60, 1)
	st, err := replication.NewState(g, fm.RandomAssign(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parfm.Run(st, parfm.Config{MaxArea: [2]int{0, 10}}); err == nil {
		t.Fatal("zero MaxArea accepted")
	}
	if _, err := parfm.Run(st, parfm.Config{MaxArea: [2]int{10, 10}, MinArea: [2]int{-1, 0}}); err == nil {
		t.Fatal("negative MinArea accepted")
	}
	if _, err := parfm.Run(st, parfm.Config{MaxArea: [2]int{1, 1}}); err == nil {
		t.Fatal("out-of-bounds initial area accepted")
	}
}

// A fault injected at a pass boundary must abort the run with the
// typed error, before the pass its ordinal names (here the second),
// and leave the state with gain maintenance restored — parity with the
// serial engine's injection site.
func TestFaultInjectionAtPass(t *testing.T) {
	g := testGraph(t, 400, 3)
	st, err := replication.NewState(g, fm.RandomAssign(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(g, parfm.NoReplication, 2)
	cfg.TraceAttempt = 0
	cfg.Inject = faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SitePass, Kind: faultinject.KindCancel,
		Attempt: faultinject.Any, Index: 1,
	})
	res, err := parfm.Run(st, cfg)
	var cancel *faultinject.CancelError
	if !errors.As(err, &cancel) {
		t.Fatalf("want CancelError, got %v", err)
	}
	if res.Passes != 1 {
		t.Fatalf("fault at pass ordinal 1 fired after %d passes", res.Passes)
	}
	if !st.GainMaintenance() {
		t.Fatal("gain maintenance left disabled after injected fault")
	}
}
