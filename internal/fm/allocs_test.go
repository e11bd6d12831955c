package fm

import (
	"slices"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/trace"
)

// A steady-state FM pass must not allocate: the gain buckets are a
// fixed node pool, candidate gains come from the state's maintained
// values or its scratch-free evaluation, rollback restores a pre-sized
// checkpoint, and every growable buffer (the objective floor's
// included) has reached its high-water mark after the warm-up run. The
// pass's span and event must not break this: disarmed they cost a
// predicted branch, and armed with a sink the per-pass event is a
// stack-built value.
func TestFMPassAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		replOnly  bool
		sink      trace.Sink
	}{
		{"plain", NoReplication, false, nil},
		{"replication", 0, false, nil},
		{"replication-only", 0, true, nil},
		// The telemetry bridge (histograms + counters) consumes each
		// pass's stack-built event without allocating.
		{"bridge-traced", NoReplication, false, telemetry.NewBridge(telemetry.NewRegistry())},
		{"bridge-replication", 0, false, telemetry.NewBridge(telemetry.NewRegistry())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 300, 5, 0.5)
			st, err := replication.NewState(g, RandomAssign(g, 5))
			if err != nil {
				t.Fatal(err)
			}
			var r Runner
			cfg := equalCfg(g, tc.threshold, 5)
			if tc.sink != nil {
				// Events need armed spans. The collector keeps one span
				// per trace, so steady-state spans are counted, not stored.
				tracer := span.NewTracer(span.Options{MaxSpansPerTrace: 1})
				cfg.Spans = tracer.Root(span.DeriveTraceID("allocs", 0, 0), 0).WithSink(tc.sink)
			}
			if _, err := r.Run(st, cfg); err != nil {
				t.Fatal(err)
			}
			// The run above converged and warmed every buffer. A further
			// pass applies moves and rolls them all back, so it is
			// repeatable — exactly the steady state the engine lives in.
			e := &r.e
			e.cfg = cfg.withDefaults()
			e.replOnly = tc.replOnly
			// Bracket each pass with its span and event exactly as the
			// phase loop does: a zero Scope must cost a predicted branch,
			// an armed one no allocation either.
			if avg := testing.AllocsPerRun(5, func() {
				run := e.cfg.Spans.Start("fm-pass", e.cfg.TraceAttempt)
				_, moves, cut := e.pass()
				run.EndEvent(trace.Event{Kind: trace.KindFMPass, Pass: 1, Moves: moves, Cut: cut})
			}); avg != 0 {
				t.Fatalf("steady-state pass allocates %v times", avg)
			}
		})
	}
}

// A steady-state sub-round pass must not allocate once every buffer
// has hit its high-water mark: proposals live in a fixed per-cell
// array, the commit order is counting-sorted into a reused slice,
// dirty tracking is epoch-stamped (never cleared), and rollback walks
// the undo trail. The span and event path must preserve this — the
// telemetry bridge consumes stack-built events. The graph stays below
// the engine's parallel cutoff so the measured loop is the
// allocation-relevant serial protocol (goroutine fan-out on big shards
// allocates per spawn, by design); Run would give such a state the
// serial engine, so the warm-up run drives the parallel one directly.
func TestParFMPassAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		replOnly  bool
		sink      trace.Sink
	}{
		{"plain", NoReplication, false, nil},
		{"replication", 0, false, nil},
		{"replication-only", 0, true, nil},
		{"plain-traced", NoReplication, false, telemetry.NewBridge(telemetry.NewRegistry())},
		{"bridge-traced", NoReplication, false, telemetry.NewBridge(telemetry.NewRegistry())},
		{"bridge-replication", 0, false, telemetry.NewBridge(telemetry.NewRegistry())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := bench.Generate(bench.Params{
				Name: "allocs", Cells: 300, PrimaryIn: 10, PrimaryOut: 6,
				Seed: 5, Clustering: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			assign := make([]replication.Block, g.NumCells())
			acc, half := 0, g.TotalArea()/2
			for ci := range assign {
				if acc < half {
					acc += g.Cells[ci].Area
				} else {
					assign[ci] = 1
				}
			}
			st, err := replication.NewState(g, assign)
			if err != nil {
				t.Fatal(err)
			}
			lo := g.TotalArea() * 2 / 5
			hi := g.TotalArea() - lo
			var r Runner
			cfg := Config{
				MinArea: [2]int{lo, lo}, MaxArea: [2]int{hi, hi},
				Threshold: tc.threshold, RefineWorkers: 2,
			}
			if tc.sink != nil {
				// Events need armed spans. The collector keeps one span
				// per trace, so steady-state spans are counted, not stored.
				tracer := span.NewTracer(span.Options{MaxSpansPerTrace: 1})
				cfg.Spans = tracer.Root(span.DeriveTraceID("allocs", 0, 0), 0).WithSink(tc.sink)
			}
			if _, err := r.run(st, cfg, true); err != nil {
				t.Fatal(err)
			}
			// The run above converged and warmed every buffer; replay
			// steady-state passes.
			p := &r.par
			p.cfg = cfg.withDefaults()
			p.replOnly = tc.replOnly
			// Bracket each pass with its span and event exactly as
			// runPhases does: a zero Scope must cost a predicted branch,
			// an armed one no allocation either.
			if avg := testing.AllocsPerRun(5, func() {
				run := p.cfg.Spans.Start("parfm-pass", p.cfg.TraceAttempt)
				_, moves, cut := p.pass(1)
				run.EndEvent(trace.Event{Kind: trace.KindFMPass, Pass: 1, Moves: moves, Cut: cut})
			}); avg != 0 {
				t.Fatalf("steady-state pass allocates %v times", avg)
			}
		})
	}
}

// A warm runner moving on to a new graph no larger than one it already
// laid out allocates nothing — the k-way carve loop's steady state: the
// state rebinds into its own arrays, both engines lay the new graph out
// into the old layout's capacity and the shuffle generator is reseeded.
// The cluster grown over the rebound state is just as allocation-free,
// and so is the serial engine laying one layout out again as runs
// alternate between replication and plain FM.
func TestRunNewGraphAllocs(t *testing.T) {
	gs := []*hypergraph.Graph{testGraph(t, 300, 5, 0.5), testGraph(t, 240, 6, 0.5)}
	var (
		st     replication.State
		r      Runner
		cs     ClusterScratch
		assign []replication.Block
	)
	carve := func(seed int64) error {
		for _, g := range gs {
			total := g.TotalArea()
			assign = slices.Grow(assign[:0], g.NumCells())[:g.NumCells()]
			clear(assign)
			if err := st.Rebind(g, assign, true); err != nil {
				return err
			}
			assign = cs.Assign(assign, &st, seed, total/2)
			// Serial with replication, serial plain, then the parallel
			// sub-round engine, driven directly (Run would give a state
			// below its goroutine fan-out cutoff the serial engine).
			for _, run := range []struct{ threshold, workers int }{{0, 0}, {NoReplication, 0}, {0, 2}} {
				if err := st.ResetPinned(assign, true); err != nil {
					return err
				}
				cfg := Config{MinArea: [2]int{1, 0}, MaxArea: [2]int{total, total}, Threshold: run.threshold, Seed: seed}
				if _, err := runEngine(&r, &st, cfg, run.workers); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := carve(1); err != nil {
		t.Fatal(err)
	}
	var err error
	if avg := testing.AllocsPerRun(3, func() { err = carve(7) }); avg != 0 || err != nil {
		t.Fatalf("warm assignment, rebind and run allocate %v times (err %v)", avg, err)
	}
}

// BenchmarkGainUpdate compares the cost of keeping single-move gains
// current across one applied move: the incremental criticality-delta
// maintenance (folded into Apply/Undo) against the semantic
// recomputation over the touched neighborhood that a bucket refresh
// previously required.
func BenchmarkGainUpdate(b *testing.B) {
	g := testGraph(b, 600, 11, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 11))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumCells()
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := hypergraph.CellID(i % n)
			tok, err := st.Apply(replication.Move{Cell: c, Kind: replication.SingleMove})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Undo(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		var buf []hypergraph.CellID
		for i := 0; i < b.N; i++ {
			c := hypergraph.CellID(i % n)
			tok, err := st.Apply(replication.Move{Cell: c, Kind: replication.SingleMove})
			if err != nil {
				b.Fatal(err)
			}
			buf = st.TouchedCells(c, buf)
			for _, t := range buf {
				_ = st.MustGain(replication.Move{Cell: t, Kind: replication.SingleMove})
			}
			if err := st.Undo(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
}
