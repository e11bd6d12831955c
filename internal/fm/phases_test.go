package fm

import (
	"testing"

	"fpgapart/internal/faultinject"
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
			tracer := span.NewTracer(span.Options{Process: "fm-test"})
			cfg := Config{Threshold: tc.threshold, MaxPasses: tc.maxPasses, TraceAttempt: 3,
				Spans: tracer.Root(span.DeriveTraceID("phases", 0, 0), 0).WithSink(&rec)}
			cfg.Inject = faultinject.NewPlan(faultinject.Rule{
				Site: faultinject.SitePass, Kind: faultinject.KindCancel,
				Attempt: faultinject.Any, Index: len(tc.want),
			})
			passes, moves, err := runPhases(cfg.withDefaults(), "pass", pass)
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
