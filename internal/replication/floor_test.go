package replication

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/hypergraph"
)

// referenceFloor recomputes the objective floor from the netlist: each
// net's blocks in which a locked cell has an active pin (block 1 for a
// pinned external net's virtual pin), counting the nets whose locked
// pins cover both blocks.
func referenceFloor(s *State, locked []bool) int {
	sides := make([]uint8, len(s.g.Nets))
	if s.extPin {
		for ni := range s.g.Nets {
			if s.g.Nets[ni].Ext != hypergraph.Internal {
				sides[ni] = 2
			}
		}
	}
	for ci := range s.g.Cells {
		if !locked[ci] {
			continue
		}
		c := &s.g.Cells[ci]
		for b := Block(0); b < 2; b++ {
			for i, n := range c.Outputs {
				if s.own[ci][b]&(1<<uint(i)) != 0 {
					sides[n] |= 1 << b
				}
			}
			for j, n := range c.Inputs {
				if n != hypergraph.NilNet && s.own[ci][b]&inputCol(c, j) != 0 {
					sides[n] |= 1 << b
				}
			}
		}
	}
	total := 0
	for n := range s.g.Nets {
		if sides[n] == 3 {
			total++
		}
	}
	return total
}

// A net no cell has an active pin on never enters the floor: a pinned
// external net's virtual pin alone keeps it in block 1, uncut, while
// locking the one cell in block 0 keeps the pinned live nets cut.
func TestObjectiveFloorIdleNet(t *testing.T) {
	b := hypergraph.NewBuilder("idle")
	idle, live := b.InputNet("idle"), b.InputNet("live")
	// The output ignores the first input, so no pin on "idle" is active.
	b.AddCell(hypergraph.CellSpec{
		Inputs: []hypergraph.NetID{idle, live}, Outputs: []hypergraph.NetID{b.OutputNet("out")},
		DepBits: [][]int{{0, 1}},
	})
	g := b.MustBuild()
	for _, pinned := range []bool{false, true} {
		s, err := NewStatePinned(g, []Block{0}, pinned)
		if err != nil {
			t.Fatal(err)
		}
		var f ObjectiveFloor
		f.Reset(s)
		f.Lock(0)
		// Pinned, "live" and "out" are cut for good; "idle" is not.
		want := 0
		if pinned {
			want = 2
		}
		if f.Value() != want || f.Value() != referenceFloor(s, []bool{true}) || s.CutSize() < f.Value() {
			t.Fatalf("pinned=%v: floor %d, want %d (cut %d)", pinned, f.Value(), want, s.CutSize())
		}
	}
}

// Walking a pass — each step moves an unlocked cell by any move kind
// and locks it — the floor must equal the reference recount and bound
// the cut of the current state and of every one-move extension by an
// unlocked cell, pinned or not.
func TestObjectiveFloorBoundsLaterPrefixes(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomNetlist(r, 2+int(seed)%20)
		assign := make([]Block, g.NumCells())
		for i := range assign {
			assign[i] = Block(r.Intn(2))
		}
		s, err := NewStatePinned(g, assign, seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		locked := make([]bool, g.NumCells())
		var f ObjectiveFloor
		f.Reset(s)
		for step := 0; ; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			if want := referenceFloor(s, locked); f.Value() != want {
				t.Fatalf("%s: floor %d, reference %d", at, f.Value(), want)
			}
			var next []Move
			for _, m := range candidateMoves(s) {
				if !locked[m.Cell] {
					next = append(next, m)
				}
			}
			if s.CutSize() < f.Value() {
				t.Fatalf("%s: cut %d below floor %d", at, s.CutSize(), f.Value())
			}
			for _, m := range next {
				tok, err := s.Apply(m)
				if err != nil {
					t.Fatal(err)
				}
				if s.CutSize() < f.Value() {
					t.Fatalf("%s: after %v cut %d below floor %d", at, m, s.CutSize(), f.Value())
				}
				if err := s.Undo(tok); err != nil {
					t.Fatal(err)
				}
			}
			if len(next) == 0 {
				break
			}
			m := next[r.Intn(len(next))]
			if _, err := s.Apply(m); err != nil {
				t.Fatal(err)
			}
			locked[m.Cell] = true
			f.Lock(m.Cell)
		}
	}
}
