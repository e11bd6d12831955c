package fm_test

import (
	"fmt"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/replication"
)

// BenchmarkRefine compares a full refinement run on a Rent's-rule
// instance across engines and worker counts, from the same fixed
// initial assignment each iteration. The parallel engine's result is
// identical for every worker count; the serial engine is the classic
// gain-bucket path. The 4→8 step shows whether proposal workers still
// scale past four; it needs eight CPUs, since the proposal fan-out is
// capped at GOMAXPROCS.
func BenchmarkRefine(b *testing.B) {
	g, err := bench.GenerateRent(bench.RentParams{
		Name: "rent65", Cells: 20000, PrimaryIn: 100, PrimaryOut: 50,
		Rent: 0.65, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	assign := fm.RandomAssign(g, 1)
	minA, maxA := fm.Balance(g.TotalArea(), 0.10)
	st, err := replication.NewState(g, assign)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		var r fm.Runner
		for i := 0; i < b.N; i++ {
			if err := st.ResetPinned(assign, false); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%dw", workers), func(b *testing.B) {
			var r fm.Runner
			for i := 0; i < b.N; i++ {
				if err := st.ResetPinned(assign, false); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, RefineWorkers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
