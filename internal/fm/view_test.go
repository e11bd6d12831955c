package fm

import (
	"slices"
	"testing"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// Along a chain of carves, a state re-targeted to each remainder
// (replication.State.Retarget) must drive cluster growth and both FM
// engines exactly as a state rebound onto the remainder graph
// hypergraph.Subcircuit extracts: the same initial assignments and the
// same refined partitions, carve after carve.
func TestViewMatchesRemainderGraph(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			g := testGraph(t, 400, seed, 0.5)
			view, err := replication.NewStatePinned(g, make([]replication.Block, g.NumCells()), true)
			if err != nil {
				t.Fatal(err)
			}
			var ref replication.State
			rg := g
			var vr, rr Runner
			var vc, rc ClusterScratch
			for depth := 0; rg.NumCells() > 40; depth++ {
				target := rg.TotalArea() / 3
				if err := ref.Rebind(rg, make([]replication.Block, rg.NumCells()), depth%2 == 0); err != nil {
					t.Fatal(err)
				}
				want := rc.Assign(nil, &ref, seed+int64(depth), target)
				got := vc.Assign(nil, view, seed+int64(depth), target)
				if !slices.Equal(got, want) {
					t.Fatalf("workers %d seed %d depth %d: the view grows another cluster than the remainder graph", workers, seed, depth)
				}
				if err := view.ResetPinned(want, depth%2 == 0); err != nil {
					t.Fatal(err)
				}
				if err := ref.ResetPinned(want, depth%2 == 0); err != nil {
					t.Fatal(err)
				}
				cfg := Config{MinArea: [2]int{target / 2, 0}, MaxArea: [2]int{target * 3 / 2, rg.TotalArea()}, Threshold: 0, Seed: seed}
				vres, err := runEngine(&vr, view, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				rres, err := runEngine(&rr, &ref, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if vres != rres || view.Terminals(0) != ref.Terminals(0) || view.ReplicatedCount() != ref.ReplicatedCount() {
					t.Fatalf("workers %d seed %d depth %d: view run %+v, remainder graph run %+v", workers, seed, depth, vres, rres)
				}
				for ci := range rg.NumCells() {
					c := hypergraph.CellID(ci)
					if view.OutputsIn(c, 0) != ref.OutputsIn(c, 0) || view.OutputsIn(c, 1) != ref.OutputsIn(c, 1) {
						t.Fatalf("workers %d seed %d depth %d: cell %d ends differently", workers, seed, depth, c)
					}
				}
				next, err := rg.Subcircuit(rg.Name+".1", ref.InstanceSpecs(1), ref.CutNet)
				if err != nil {
					t.Fatal(err)
				}
				view.Retarget()
				rg = next
			}
		}
	}
}
