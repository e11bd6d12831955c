package replication

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/hypergraph"
)

// referenceFloor recomputes the objective floor from the netlist: each
// net's blocks in which a locked cell has an active pin (block 1 for a
// pinned external net's virtual pin), then the least cost of any
// activity pattern covering them, or the net's current cost when no
// cell has an active pin on it.
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
				if n != hypergraph.NilNet && s.own[ci][b]&s.col[ci][j] != 0 {
					sides[n] |= 1 << b
				}
			}
		}
	}
	w := s.netW
	if w == nil {
		w = unitWeights(len(s.g.Nets))
	}
	total := 0
	for n := range s.g.Nets {
		if s.netOff[n] == s.netOff[n+1] {
			total += int(costAt(&w[n], s.cnt[n][0], s.cnt[n][1]))
			continue
		}
		best := int32(1 << 30)
		for p := uint8(1); p <= 3; p++ {
			if p&sides[n] == sides[n] {
				best = min(best, costAt(&w[n], int32(p&1), int32(p>>1)))
			}
		}
		total += int(best)
	}
	return total
}

// signedWeights builds a weight table with zero, negative and
// non-monotone entries: every Alone and Both value is drawn from
// [-3, 4], so Both can fall below an Alone weight.
func signedWeights(r *rand.Rand, nets int) []NetWeights {
	w := make([]NetWeights, nets)
	for i := range w {
		w[i] = NetWeights{
			Alone: [2]int32{int32(r.Intn(8) - 3), int32(r.Intn(8) - 3)},
			Both:  int32(r.Intn(8) - 3),
		}
	}
	return w
}

// A net no cell has an active pin on keeps its cost for good: none, or
// block 1's Alone weight when a pinned external net's virtual pin is its
// only connection. The floor counts exactly that, not the least weight.
func TestObjectiveFloorIdleNet(t *testing.T) {
	b := hypergraph.NewBuilder("idle")
	idle, live := b.InputNet("idle"), b.InputNet("live")
	// The output ignores the first input, so no pin on "idle" is active.
	b.AddCell(hypergraph.CellSpec{
		Inputs: []hypergraph.NetID{idle, live}, Outputs: []hypergraph.NetID{b.OutputNet("out")},
		DepBits: [][]int{{0, 1}},
	})
	g := b.MustBuild()
	w := []NetWeights{{Alone: [2]int32{2, 3}, Both: 5}, {Alone: [2]int32{1, 1}, Both: 1}, {Alone: [2]int32{1, 1}, Both: 1}}
	for _, pinned := range []bool{false, true} {
		s, err := NewStatePinned(g, []Block{0}, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetNetWeights(w); err != nil {
			t.Fatal(err)
		}
		var f ObjectiveFloor
		f.Reset(s)
		// The idle net costs 0 unpinned and Alone[1] = 3 pinned; the two
		// live nets cost at least 1 each.
		want := 2
		if pinned {
			want += 3
		}
		if f.Value() != want || s.Objective() < f.Value() {
			t.Fatalf("pinned=%v: floor %d, want %d (objective %d)", pinned, f.Value(), want, s.Objective())
		}
	}
}

// Walking a pass — each step moves an unlocked cell by any move kind
// and locks it — the floor must equal the reference recount and bound
// the objective of the current state and of every one-move extension
// by an unlocked cell, pinned or not, unit-cut or weighted.
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
		if seed%4 >= 2 {
			if err := s.SetNetWeights(signedWeights(r, len(g.Nets))); err != nil {
				t.Fatal(err)
			}
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
			if s.Objective() < f.Value() {
				t.Fatalf("%s: objective %d below floor %d", at, s.Objective(), f.Value())
			}
			for _, m := range next {
				tok, err := s.Apply(m)
				if err != nil {
					t.Fatal(err)
				}
				if s.Objective() < f.Value() {
					t.Fatalf("%s: after %v objective %d below floor %d", at, m, s.Objective(), f.Value())
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
