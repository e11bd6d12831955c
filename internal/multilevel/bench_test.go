package multilevel

import (
	"testing"

	"fpgapart/internal/fm"
	"fpgapart/internal/replication"
)

// BenchmarkRun samples the full V-cycle at a reduced scale, which keeps
// the CI bench-smoke sweep fast; kbench's large-vcycle workload
// (cmd/kbench) measures it end to end. "one-shot" is the package-level
// Run, which builds its storage per cycle; "warm" reuses one Runner and
// its finest-level state, as each kway carve worker does.
func BenchmarkRun(b *testing.B) {
	g := circuit(b, 3000, 7)
	minA, maxA := fm.Balance(g.TotalArea(), 0.1)
	cfg := Config{
		Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: 3},
		TargetArea: g.TotalArea() / 2,
		Starts:     1,
	}
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fresh(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		var r Runner
		var st replication.State
		if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(&st, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(&st, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
