package cluster

import (
	"reflect"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// narrowFixture is a hierarchy over a carve state and the storage a
// carve, a Retarget and a narrowing of it reuse.
type narrowFixture struct {
	g      *hypergraph.Graph
	st     replication.State
	c      Coarsener
	assign []replication.Block
	ids    []int32
}

const narrowLevels = 4

// build binds the state to the circuit and contracts narrowLevels
// levels over it.
func (f *narrowFixture) build(t *testing.T, seed int64) {
	t.Helper()
	if err := f.st.Rebind(f.g, f.assign[:f.g.NumCells()], false); err != nil {
		t.Fatal(err)
	}
	cur := &f.st
	for l := range narrowLevels {
		cl, err := f.c.Build(l, cur, Options{MaxClusterArea: 2 << l, MaxClusterOutputs: 24, Seed: seed + int64(l)})
		if err != nil {
			t.Fatal(err)
		}
		cur = cl.Level
	}
}

// carve bipartitions the state as a k-way carve leaves it: every third
// cell in block 0, and every fifth multi-output cell split, its replica
// carrying the first candidate split. It fills f.ids with each cell's
// id in the block-1 remainder, or -1.
func (f *narrowFixture) carve(t *testing.T) {
	t.Helper()
	st := &f.st
	n := st.NumCells()
	for c := range n {
		f.assign[c] = 1
		if c%3 == 0 {
			f.assign[c] = 0
		}
	}
	if err := st.ResetPinned(f.assign[:n], false); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < n; ci += 5 {
		c := hypergraph.CellID(ci)
		if splits := st.Splits(c); len(splits) > 0 {
			if _, err := st.Apply(replication.Move{Cell: c, Kind: replication.Replicate, Carry: splits[0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.ids = f.ids[:n]
	j := int32(0)
	for c := range n {
		f.ids[c] = -1
		if st.OutputsIn(hypergraph.CellID(c), 1) != 0 {
			f.ids[c] = j
			j++
		}
	}
}

// Narrowing is a contraction. After a carve, with replicas, narrows the
// finest level to its block 1, every level Narrow re-contracts must
// equal, field by field, a state bound to the reference contraction
// (refContract) of the narrowed finer level's graph by the pairs that
// survive, with the reference's member lists. The finest reference is
// the remainder graph hypergraph.Subcircuit extracts for block 1, which
// replication.State.Retarget reproduces. Each narrowed level's members
// partition the finer level, its area is the remainder's and it passes
// CheckInvariants; a warm narrowing allocates nothing.
func TestNarrowMatchesReference(t *testing.T) {
	for _, gs := range []int64{1, 2} {
		g, err := bench.Generate(bench.Params{
			Name: "narrow", Cells: 600, PrimaryIn: 24, PrimaryOut: 16,
			DFFs: 200, Clustering: 0.6, Seed: gs,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := &narrowFixture{g: g, assign: make([]replication.Block, g.NumCells()), ids: make([]int32, g.NumCells())}
		f.build(t, gs)
		f.carve(t)
		refG, err := g.Subcircuit("narrow.1", f.st.InstanceSpecs(1), f.st.CutNet)
		if err != nil {
			t.Fatal(err)
		}
		f.st.Retarget()
		if f.st.NumCells() != refG.NumCells() {
			t.Fatalf("circuit %d: remainder of %d cells, reference %d", gs, f.st.NumCells(), refG.NumCells())
		}
		area := f.st.TotalArea()
		cur, ids, narrowed := &f.st, f.ids, 0
		for l := range narrowLevels {
			// The surviving pairs, read off the slot before Narrow
			// overwrites it.
			match := make([]int, refG.NumCells())
			for _, ms := range f.c.slots[l].lists {
				var kept []int
				for _, m := range ms {
					if ids[m] >= 0 {
						kept = append(kept, int(ids[m]))
					}
				}
				switch len(kept) {
				case 1:
					match[kept[0]] = kept[0]
				case 2:
					match[kept[0]], match[kept[1]] = kept[1], kept[0]
				}
			}
			cl, next, err := f.c.Narrow(l, cur, ids)
			refCoarse, refMembers, refErr := refContract(refG, match)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("circuit %d level %d: error %v, reference %v", gs, l+1, err, refErr)
			}
			if err != nil {
				break
			}
			if !reflect.DeepEqual(cl.Members, refMembers) {
				t.Fatalf("circuit %d level %d: member lists differ from the reference", gs, l+1)
			}
			covered := make([]int, cur.NumCells())
			for _, ms := range cl.Members {
				for _, m := range ms {
					covered[m]++
				}
			}
			for c, k := range covered {
				if k != 1 {
					t.Fatalf("circuit %d level %d: finer cell %d in %d clusters", gs, l+1, c, k)
				}
			}
			if cl.Level.TotalArea() != area {
				t.Fatalf("circuit %d level %d: area %d, the remainder's %d", gs, l+1, cl.Level.TotalArea(), area)
			}
			assign := make([]replication.Block, refCoarse.NumCells())
			for i := range assign {
				assign[i] = replication.Block(i / 3 % 2)
			}
			var ref replication.State
			if err := ref.Rebind(refCoarse, assign, l%2 == 1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Level.ResetPinned(assign, l%2 == 1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Level.CheckInvariants(); err != nil {
				t.Fatalf("circuit %d level %d: %v", gs, l+1, err)
			}
			if d := sameFields(reflect.ValueOf(cl.Level).Elem(), reflect.ValueOf(&ref).Elem(), ""); d != "" {
				t.Fatalf("circuit %d level %d: the narrowed level differs from the state of the reference graph: %s", gs, l+1, d)
			}
			narrowed++
			refG, cur, ids = refCoarse, cl.Level, next
		}
		if narrowed < 2 {
			t.Fatalf("circuit %d: %d levels narrowed, want at least 2", gs, narrowed)
		}

		allocs := testing.AllocsPerRun(2, func() {
			f.build(t, gs)
			f.carve(t)
			f.st.Retarget()
			cur, ids := &f.st, f.ids
			for l := range narrowLevels {
				cl, next, err := f.c.Narrow(l, cur, ids)
				if err != nil {
					break
				}
				cur, ids = cl.Level, next
			}
		})
		if allocs != 0 {
			t.Fatalf("circuit %d: a warm build, carve and narrowing made %.0f allocations, want 0", gs, allocs)
		}
	}
}
