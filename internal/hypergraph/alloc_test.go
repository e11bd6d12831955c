package hypergraph_test

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
)

// Subcircuit's allocation count must not grow with the instance count:
// its per-net bookkeeping is dense and every cell's pin lists and
// adjacency rows are carved from shared buffers. The bound covers the
// closing RebuildConns and Validate. On a warm arena the extraction
// allocates a constant handful of times.
func TestSubcircuitAllocs(t *testing.T) {
	const maxAllocs, maxWarmAllocs = 32, 2
	for _, name := range []string{"c3540", "s38584"} {
		c, _ := bench.ByName(name)
		g := c.MustBuild()
		// One side of a split at the middle cell id: cut nets become
		// terminals, as in a carve's materialization.
		half := hypergraph.CellID(g.NumCells() / 2)
		whole := make([]hypergraph.InstanceSpec, g.NumCells())
		for ci := range whole {
			whole[ci].Cell = hypergraph.CellID(ci)
		}
		specs := whole[:half]
		cut := func(n hypergraph.NetID) bool {
			var in, out bool
			for _, cn := range g.Nets[n].Conns {
				if cn.Cell < half {
					in = true
				} else {
					out = true
				}
			}
			return in && out
		}
		if _, err := g.Subcircuit("side", specs, cut); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(5, func() {
			if _, err := g.Subcircuit("side", specs, cut); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d instances, %v allocations", name, len(specs), avg)
		if avg > maxAllocs {
			t.Errorf("%s: Subcircuit of %d instances allocates %v times, want <= %d", name, len(specs), avg, maxAllocs)
		}
		// A warm arena holds storage for the whole circuit, so a build
		// of one side allocates only the graph header.
		var a hypergraph.Arena
		if _, err := g.SubcircuitIn(&a, "whole", whole, nil); err != nil {
			t.Fatal(err)
		}
		warm := testing.AllocsPerRun(5, func() {
			if _, err := g.SubcircuitIn(&a, "side", specs, cut); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: warm arena, %v allocations", name, warm)
		if warm > maxWarmAllocs {
			t.Errorf("%s: SubcircuitIn on a warm arena allocates %v times, want <= %d", name, warm, maxWarmAllocs)
		}
	}
}
