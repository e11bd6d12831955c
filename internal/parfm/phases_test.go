package parfm

import (
	"fmt"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// The schedule on scripted pass outcomes: which passes run, in which
// phase kind, and which the driver skips as provably dry. A skipped pass
// consults no fault plan (a rule at the ordinal after the last run pass
// never fires) and emits no event: each run pass, numbered from 1, ends
// its span with one KindFMPass event carrying its moves and cut.
func TestRunPhasesSkipsProvablyDryPasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		maxPasses int
		outcomes  string // per executed pass: + improved, - dry
		want      string // kinds of the executed passes: P plain, R replication-only
	}{
		{"plain-only", NoReplication, 0, "++-", "PPP"},
		// Plain improves then runs dry, replication is dry: the next
		// round's plain and replication passes would both repeat a dry
		// pass from the same state.
		{"repeat-round", 0, 0, "+--", "PPR"},
		// Replication improves, so the next plain pass runs. It runs dry
		// at the version replication last ran dry at, so the next
		// replication pass is skipped.
		{"replication-improves", 0, 0, "-+--", "PRRP"},
		{"both-improve", 0, 0, "+-+-+--", "PPRRPPR"},
		// A phase capped by MaxPasses ends without a dry pass.
		{"capped", 0, 2, "++-+--", "PPRPPR"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kinds []byte
			pass := func(n, threshold int, replOnly bool) (bool, int, int) {
				k := len(kinds)
				if k >= len(tc.outcomes) || n != k+1 {
					t.Fatalf("pass %d (numbered %d) beyond the script", k, n)
				}
				if replOnly {
					kinds = append(kinds, 'R')
					if threshold != tc.threshold {
						t.Fatalf("replication-only pass with threshold %d", threshold)
					}
				} else {
					kinds = append(kinds, 'P')
					if threshold != NoReplication {
						t.Fatalf("plain pass with threshold %d", threshold)
					}
				}
				return tc.outcomes[k] == '+', 10, 100 - k
			}
			var rec trace.Recorder
			tracer := span.NewTracer(span.Options{Process: "parfm-test"})
			cfg := Config{Threshold: tc.threshold, MaxPasses: tc.maxPasses, TraceAttempt: 3,
				Spans: tracer.Root(span.DeriveTraceID("phases", 0, 0), 0).WithSink(&rec)}
			cfg.Inject = faultinject.NewPlan(faultinject.Rule{
				Site: faultinject.SitePass, Kind: faultinject.KindCancel,
				Attempt: faultinject.Any, Index: len(tc.want),
			})
			passes, moves, err := RunPhases(cfg, "pass", pass)
			if err != nil {
				t.Fatal(err)
			}
			if string(kinds) != tc.want || passes != len(tc.want) || moves != 10*len(tc.want) {
				t.Fatalf("ran %q (%d passes, %d moves), want %q", kinds, passes, moves, tc.want)
			}
			events := rec.Events()
			if len(events) != passes {
				t.Fatalf("%d events for %d passes", len(events), passes)
			}
			for k, e := range events {
				if e.Kind != trace.KindFMPass || e.Attempt != 3 || e.Pass != k+1 || e.Moves != 10 || e.Cut != 100-k {
					t.Fatalf("event %d = %+v", k, e)
				}
			}
		})
	}
}

// Run ends only when both phase kinds are dry at the final state, so one
// more plain pass and one more replication-only pass must both be dry
// and leave the partition untouched.
func TestSkippedPassesAreDry(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := bench.Generate(bench.Params{
			Name: "dry", Cells: 300 + 100*int(seed), PrimaryIn: 10, PrimaryOut: 6,
			Seed: seed, Clustering: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]replication.Block, g.NumCells())
		for i := range assign {
			assign[i] = replication.Block((i * 7 / 3) % 2)
		}
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		lo := g.TotalArea() * 2 / 5
		hi := g.TotalArea() - lo
		cfg := Config{MinArea: [2]int{lo, lo}, MaxArea: [2]int{hi, hi}, Threshold: int(seed % 2), Workers: 2}
		var r Runner
		if _, err := r.Run(st, cfg); err != nil {
			t.Fatal(err)
		}
		want := signature(st)
		st.SetGainMaintenance(false)
		var res Result
		for _, replOnly := range []bool{false, true} {
			r.cfg.Threshold, r.replOnly = NoReplication, false
			if replOnly {
				r.cfg.Threshold, r.replOnly = cfg.Threshold, true
			}
			if improved, _, _ := r.pass(&res, 1); improved || signature(st) != want {
				t.Fatalf("seed %d replOnly=%v: pass after Run improved=%v", seed, replOnly, improved)
			}
		}
		st.SetGainMaintenance(true)
	}
}

func signature(st *replication.State) string {
	out := fmt.Sprintf("cut=%d;", st.CutSize())
	for ci := 0; ci < st.Graph().NumCells(); ci++ {
		c := hypergraph.CellID(ci)
		out += fmt.Sprintf("%x/%x,", st.OutputsIn(c, 0), st.OutputsIn(c, 1))
	}
	return out
}
