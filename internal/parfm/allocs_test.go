package parfm

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/trace"
)

// A steady-state sub-round pass must not allocate once every buffer
// has hit its high-water mark: proposals live in a fixed per-cell
// array, the commit order is counting-sorted into a reused slice,
// dirty tracking is epoch-stamped (never cleared), and rollback walks
// the undo trail. The span and event path must preserve this — the
// telemetry bridge consumes stack-built events. The graph stays below
// the engine's parallel cutoff so the measured loop is the
// allocation-relevant serial protocol (goroutine fan-out on big shards
// allocates per spawn, by design).
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
				Threshold: tc.threshold, Workers: 2,
			}
			if tc.sink != nil {
				// Events need armed spans. The collector keeps one span
				// per trace, so steady-state spans are counted, not stored.
				tracer := span.NewTracer(span.Options{MaxSpansPerTrace: 1})
				cfg.Spans = tracer.Root(span.DeriveTraceID("allocs", 0, 0), 0).WithSink(tc.sink)
			}
			if _, err := r.Run(st, cfg); err != nil {
				t.Fatal(err)
			}
			// The run above converged and warmed every buffer; replay
			// steady-state passes under the engine's in-run state mode.
			st.SetGainMaintenance(false)
			defer st.SetGainMaintenance(true)
			r.cfg = cfg.withDefaults()
			r.replOnly = tc.replOnly
			var res Result
			// Bracket each pass with its span and event exactly as
			// RunPhases does: a zero Scope must cost a predicted branch,
			// an armed one no allocation either.
			if avg := testing.AllocsPerRun(5, func() {
				run := r.cfg.Spans.Start("parfm-pass", r.cfg.TraceAttempt)
				_, moves, cut := r.pass(&res, 1)
				run.EndEvent(trace.Event{Kind: trace.KindFMPass, Pass: 1, Moves: moves, Cut: cut})
			}); avg != 0 {
				t.Fatalf("steady-state pass allocates %v times", avg)
			}
		})
	}
}
