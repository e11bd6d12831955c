package replication

import (
	"testing"

	"fpgapart/internal/hypergraph"
)

// fourOut builds a 4-output cell Q whose outputs drive sinks spread
// over both blocks, exercising the generalized (m > 2) split machinery.
func fourOut(t *testing.T) (*State, hypergraph.CellID) {
	t.Helper()
	b := hypergraph.NewBuilder("quad")
	pi := b.InputNet("pi")
	in := make([]hypergraph.NetID, 4)
	var drivers []hypergraph.CellID
	for i := range in {
		in[i] = b.Net([]string{"ia", "ib", "ic", "id"}[i])
		drivers = append(drivers, b.AddCell(hypergraph.CellSpec{
			Name: "D" + string(rune('a'+i)), Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{in[i]},
		}))
	}
	outs := make([]hypergraph.NetID, 4)
	for i := range outs {
		outs[i] = b.Net([]string{"oa", "ob", "oc", "od"}[i])
	}
	q := b.AddCell(hypergraph.CellSpec{
		Name:    "Q",
		Inputs:  in,
		Outputs: outs,
		// Output i depends on input i only: ψ = 4.
		DepBits: [][]int{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}},
	})
	po := make([]hypergraph.NetID, 4)
	var sinks []hypergraph.CellID
	for i := range po {
		po[i] = b.OutputNet([]string{"pa", "pb", "pc", "pd"}[i])
		sinks = append(sinks, b.AddCell(hypergraph.CellSpec{
			Name: "S" + string(rune('a'+i)), Inputs: []hypergraph.NetID{outs[i]}, Outputs: []hypergraph.NetID{po[i]},
		}))
	}
	g := b.MustBuild()
	assign := make([]Block, g.NumCells())
	// Drivers c and d plus sinks c and d live in block 1; Q in block 0.
	assign[drivers[2]] = 1
	assign[drivers[3]] = 1
	assign[sinks[2]] = 1
	assign[sinks[3]] = 1
	st, err := NewState(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	return st, q
}

func TestFourOutputSplitsEnumerated(t *testing.T) {
	st, q := fourOut(t)
	splits := st.Splits(q)
	if len(splits) != 14 { // 2^4 - 2 proper non-empty subsets
		t.Fatalf("splits = %d, want 14", len(splits))
	}
	if st.Psi(q) != 4 {
		t.Fatalf("ψ = %d, want 4", st.Psi(q))
	}
}

func TestFourOutputFormulaMatchesSemantic(t *testing.T) {
	st, q := fourOut(t)
	for _, carry := range st.Splits(q) {
		want, err := st.Gain(Move{Cell: q, Kind: Replicate, Carry: carry})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.GainFunctionalFormula(q, carry)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("carry %04b: formula %d, semantic %d", carry, got, want)
		}
	}
}

func TestFourOutputBestSplit(t *testing.T) {
	st, q := fourOut(t)
	// Initial cut: pi (both blocks), ic, id (driven in 1, Q in 0),
	// oc, od (Q drives in 0, sinks in 1) = 5.
	if st.CutSize() != 5 {
		t.Fatalf("cut = %d, want 5", st.CutSize())
	}
	gain, carry, ok, err := st.GainFunctionalBest(q)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Carrying outputs {c,d} (mask 0b1100) moves ic,id,oc,od out of the
	// cut: gain +4.
	if carry != 0b1100 || gain != 4 {
		t.Fatalf("best split = %04b gain %d, want 1100 gain 4", carry, gain)
	}
	if _, err := st.Apply(Move{Cell: q, Kind: Replicate, Carry: carry}); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != 1 {
		t.Fatalf("cut after split = %d, want 1 (pi only)", st.CutSize())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Materialize both blocks; the replica keeps inputs {ic,id} only.
	g := st.Graph()
	sub, err := g.Subcircuit("b1", st.InstanceSpecs(1), func(n hypergraph.NetID) bool { return st.CutNet(n) })
	if err != nil {
		t.Fatal(err)
	}
	for ci := range sub.Cells {
		if sub.Cells[ci].Name == "Q$r" {
			if len(sub.Cells[ci].Inputs) != 2 || len(sub.Cells[ci].Outputs) != 2 {
				t.Fatalf("replica pins: %d in / %d out, want 2/2",
					len(sub.Cells[ci].Inputs), len(sub.Cells[ci].Outputs))
			}
			return
		}
	}
	t.Fatal("replica Q$r missing from block 1")
}
