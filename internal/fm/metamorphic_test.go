package fm

import (
	"testing"

	"fpgapart/internal/replication"
)

// A metamorphic property of a single FM run. It follows from the
// engine's structure — the replicated run's first phase is exactly the
// plain run, and every later pass rolls back to its best prefix — so
// it must hold deterministically, per run, not just in aggregate.

// TestReplicationNeverWorsensSameStart: from the same initial
// assignment and bounds, enabling replication moves can never end with
// a larger cut than plain FM.
func TestReplicationNeverWorsensSameStart(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := testGraph(t, 150, 30+seed, 0.55)
		run := func(threshold int) int {
			st, err := replication.NewState(g, RandomAssign(g, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(st, equalCfg(g, threshold, seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("seed %d T=%d: %v", seed, threshold, err)
			}
			return res.Cut
		}
		plain := run(NoReplication)
		for _, threshold := range []int{0, 2} {
			if repl := run(threshold); repl > plain {
				t.Fatalf("seed %d: T=%d cut %d worse than plain cut %d from the same start",
					seed, threshold, repl, plain)
			}
		}
	}
}
