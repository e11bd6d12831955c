package multilevel

import (
	"math/rand"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/cluster"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// FuzzCoarsenUncoarsen drives the coarsen→project round-trip the
// V-cycle is built on, over randomized circuits and cluster caps, and
// asserts the conservation laws multilevel correctness depends on:
// every finer cell appears in exactly one cluster, each coarse cell
// sums its members' areas and the coarse total matches the flat graph,
// every level has the shape a validated graph has (checkLevel), the
// original graph is left untouched (including replica flags), and
// projecting any feasible coarse assignment yields a flat assignment
// with byte-identical block areas and the coarse assignment's cut — so
// a coarse solution inside a device's area window stays inside it
// after projection, at the same cost.
func FuzzCoarsenUncoarsen(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(24), uint8(2))
	f.Add(int64(7), uint8(90), uint8(2), uint8(8), uint8(1))
	f.Add(int64(42), uint8(200), uint8(10), uint8(0), uint8(3))
	f.Add(int64(9), uint8(12), uint8(3), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, cells, capArea, capOut, rounds uint8) {
		nCells := 4 + int(cells)
		g, err := bench.Generate(bench.Params{
			Cells: nCells, PrimaryIn: 6, PrimaryOut: 3,
			Clustering: float64(seed%7) / 10, Seed: seed,
		})
		if err != nil {
			t.Skip() // degenerate parameter combination
		}
		// Mark a few replica flags so "round trip leaves the flat graph
		// untouched" covers them.
		r := rand.New(rand.NewSource(seed))
		wantReplica := make([]bool, g.NumCells())
		for i := range wantReplica {
			if r.Intn(8) == 0 {
				wantReplica[i] = true
				g.Cells[i].Replica = true
			}
		}
		wantArea := g.TotalArea()
		var src replication.State
		if err := src.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
			t.Fatal(err)
		}

		// Chain one to three levels, each contracted into its own slot
		// of one Coarsener as the V-cycle does.
		var c cluster.Coarsener
		var hier []*cluster.Clustering
		cur := &src
		for level := 0; level < 1+int(rounds%3); level++ {
			cl, err := c.Build(level, cur, cluster.Options{
				MaxClusterArea:    1 + int(capArea%12),
				MaxClusterOutputs: int(capOut % 40),
				Seed:              seed + int64(level),
			})
			if err != nil {
				break // e.g. a cluster with no surviving outputs
			}
			// Members must partition the finer level's cells exactly,
			// and each coarse cell sums its members' areas.
			seen := make([]int, cur.NumCells())
			for ci, ms := range cl.Members {
				if len(ms) == 0 {
					t.Fatalf("level %d cluster %d is empty", level, ci)
				}
				sum := 0
				for _, m := range ms {
					if int(m) >= cur.NumCells() {
						t.Fatalf("level %d cluster %d member %d outside the finer level", level, ci, m)
					}
					seen[m]++
					sum += cur.CellArea(m)
				}
				if a := cl.Level.CellArea(hypergraph.CellID(ci)); a != sum {
					t.Fatalf("level %d cluster %d area %d, members sum %d", level, ci, a, sum)
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("level %d: cell %d appears in %d clusters", level, i, n)
				}
			}
			checkLevel(t, level+1, cl.Level)
			hier = append(hier, cl)
			cur = cl.Level
		}
		if len(hier) == 0 {
			t.Skip()
		}
		if coarseArea := cur.TotalArea(); coarseArea != wantArea {
			t.Fatalf("coarse total area %d, flat total area %d", coarseArea, wantArea)
		}
		// The flat graph must be untouched, replica flags included.
		if g.NumCells() != len(wantReplica) || g.TotalArea() != wantArea {
			t.Fatal("coarsening mutated the flat graph")
		}
		for i := range g.Cells {
			if g.Cells[i].Replica != wantReplica[i] {
				t.Fatalf("coarsening flipped replica flag on cell %d", i)
			}
		}

		// Any coarse assignment projects, level by level, to a flat
		// assignment with the same block areas — the
		// feasibility-preservation contract.
		coarse := make([]replication.Block, cur.NumCells())
		for i := range coarse {
			coarse[i] = replication.Block(r.Intn(2))
		}
		flat := coarse
		for l := len(hier) - 1; l >= 0; l-- {
			finer := &src
			if l > 0 {
				finer = hier[l-1].Level
			}
			if flat, err = hier[l].Project(nil, flat, finer.NumCells()); err != nil {
				t.Fatalf("project level %d: %v", l, err)
			}
		}
		var wantBlocks, gotBlocks [2]int
		for ci, b := range coarse {
			wantBlocks[b] += cur.CellArea(hypergraph.CellID(ci))
		}
		for ci, b := range flat {
			gotBlocks[b] += g.Cells[ci].Area
		}
		if wantBlocks != gotBlocks {
			t.Fatalf("projection changed block areas: coarse %v, flat %v", wantBlocks, gotBlocks)
		}
		// The coarse level and the projected assignment must both make
		// valid replication states (every cell placed, invariants hold)
		// with the same areas.
		if err := cur.ResetPinned(coarse, false); err != nil {
			t.Fatalf("coarse assignment rejected: %v", err)
		}
		if err := cur.CheckInvariants(); err != nil {
			t.Fatalf("coarse level: %v", err)
		}
		st, err := replication.NewState(g, flat)
		if err != nil {
			t.Fatalf("projected assignment rejected: %v", err)
		}
		if st.Area(0) != gotBlocks[0] || st.Area(1) != gotBlocks[1] {
			t.Fatalf("state areas [%d %d], want %v", st.Area(0), st.Area(1), gotBlocks)
		}
		if cur.CutSize() != st.CutSize() {
			t.Fatalf("coarse cut %d, projected cut %d", cur.CutSize(), st.CutSize())
		}
	})
}

// checkLevel asserts over a level's arrays what validating a graph
// checks of it: every cell has a positive area and between one and
// replication.MaxOutputs outputs, every pin is on a net of the level,
// and no net has two drivers.
func checkLevel(t *testing.T, level int, st *replication.State) {
	t.Helper()
	drivers := make([]int, st.NumNets())
	for ci := range st.NumCells() {
		c := hypergraph.CellID(ci)
		if a := st.CellArea(c); a < 1 {
			t.Fatalf("level %d cell %d has area %d", level, ci, a)
		}
		mo := st.NumOutputs(c)
		if mo < 1 || mo > replication.MaxOutputs {
			t.Fatalf("level %d cell %d has %d outputs", level, ci, mo)
		}
		for j, n := range st.CellNets(c) {
			if n < 0 || int(n) >= st.NumNets() {
				t.Fatalf("level %d cell %d has a pin on net %d of %d", level, ci, n, st.NumNets())
			}
			if j < mo {
				drivers[n]++
			}
		}
	}
	for n, d := range drivers {
		if d > 1 {
			t.Fatalf("level %d net %d has %d drivers", level, n, d)
		}
	}
}
