package hypergraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fpgapart/internal/bitset"
)

// figure1Cell builds the 3-input/2-output cell of Fig. 1: inputs
// {a,b,c}, outputs {X,Y}, A_X = [1 1 0]^T, A_Y = [0 1 1]^T.
func figure1Cell(t *testing.T) (*Graph, CellID) {
	t.Helper()
	b := NewBuilder("fig1")
	a := b.InputNet("a")
	bb := b.InputNet("b")
	c := b.InputNet("c")
	x := b.OutputNet("X")
	y := b.OutputNet("Y")
	id := b.AddCell(CellSpec{
		Name:    "M",
		Inputs:  []NetID{a, bb, c},
		Outputs: []NetID{x, y},
		DepBits: [][]int{{1, 1, 0}, {0, 1, 1}},
	})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, id
}

func TestFigure1ReplicationPotential(t *testing.T) {
	g, id := figure1Cell(t)
	// Inputs a and c each control a single output -> ψ = 2.
	if psi := g.Cell(id).ReplicationPotential(); psi != 2 {
		t.Fatalf("ψ = %d, want 2", psi)
	}
}

func TestFigure2ReplicationPotential(t *testing.T) {
	b := NewBuilder("fig2")
	in := make([]NetID, 5)
	names := []string{"a1", "a2", "a3", "a4", "a5"}
	for i, n := range names {
		in[i] = b.InputNet(n)
	}
	x1 := b.OutputNet("X1")
	x2 := b.OutputNet("X2")
	id := b.AddCell(CellSpec{
		Name:    "F",
		Inputs:  in,
		Outputs: []NetID{x1, x2},
		DepBits: [][]int{{1, 1, 1, 1, 0}, {0, 0, 0, 1, 1}},
	})
	g := b.MustBuild()
	if psi := g.Cell(id).ReplicationPotential(); psi != 4 {
		t.Fatalf("ψ = %d, want 4 (Fig. 2)", psi)
	}
}

func TestSingleOutputPotentialZero(t *testing.T) {
	b := NewBuilder("single")
	a := b.InputNet("a")
	z := b.OutputNet("z")
	id := b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}})
	g := b.MustBuild()
	if psi := g.Cell(id).ReplicationPotential(); psi != 0 {
		t.Fatalf("single-output ψ = %d, want 0", psi)
	}
}

func TestInputsFor(t *testing.T) {
	g, id := figure1Cell(t)
	c := g.Cell(id)
	if got := inputsFor(c, []int{0}); got.String() != bitset.FromBits(1, 1, 0).String() {
		t.Fatalf("InputsFor(X) = %v", got)
	}
	if got := inputsFor(c, []int{1}); got.String() != bitset.FromBits(0, 1, 1).String() {
		t.Fatalf("InputsFor(Y) = %v", got)
	}
	if got := inputsFor(c, []int{0, 1}); got.String() != bitset.FromBits(1, 1, 1).String() {
		t.Fatalf("InputsFor(all) = %v", got)
	}
}

func TestCounts(t *testing.T) {
	g, _ := figure1Cell(t)
	if g.NumCells() != 1 || g.NumNets() != 5 || g.NumTerminals() != 5 {
		t.Fatalf("counts: cells=%d nets=%d terms=%d", g.NumCells(), g.NumNets(), g.NumTerminals())
	}
	if g.TotalArea() != 1 {
		t.Fatalf("area = %d", g.TotalArea())
	}
	// 5 cell pins + 5 terminal pins.
	if g.NumPins() != 10 {
		t.Fatalf("pins = %d, want 10", g.NumPins())
	}
	if g.NumDFF() != 0 {
		t.Fatalf("dff = %d", g.NumDFF())
	}
}

func TestCellNetsDeduplicates(t *testing.T) {
	b := NewBuilder("dup")
	a := b.InputNet("a")
	z := b.OutputNet("z")
	id := b.AddCell(CellSpec{Inputs: []NetID{a, a}, Outputs: []NetID{z}})
	g := b.MustBuild()
	nets := g.CellNets(id)
	if len(nets) != 2 {
		t.Fatalf("CellNets = %v, want 2 distinct nets", nets)
	}
}

func TestValidateRejectsTwoDrivers(t *testing.T) {
	b := NewBuilder("bad")
	a := b.InputNet("a")
	z := b.OutputNet("z")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}})
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "drivers") {
		t.Fatalf("expected multiple-driver error, got %v", err)
	}
}

func TestValidateRejectsUndrivenNet(t *testing.T) {
	b := NewBuilder("bad")
	w := b.Net("w")
	z := b.OutputNet("z")
	b.AddCell(CellSpec{Inputs: []NetID{w}, Outputs: []NetID{z}})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undriven-net error")
	}
}

// An internal net nothing reads demands no IOB, so a circuit with one
// is valid.
func TestValidateAcceptsUnreadInternalNet(t *testing.T) {
	b := NewBuilder("dead")
	a := b.InputNet("a")
	w := b.Net("w")
	z := b.OutputNet("z")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{w}})
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n := g.NumTerminals(); n != 2 {
		t.Fatalf("%d terminals, want 2 (a and z)", n)
	}
}

func TestValidateRejectsUnreadPrimaryInput(t *testing.T) {
	b := NewBuilder("bad")
	a := b.InputNet("a")
	b.InputNet("unread")
	z := b.OutputNet("z")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `net "unread" has no sinks`) {
		t.Fatalf("expected sinkless-input error, got %v", err)
	}
}

func TestValidateRejectsDrivenPrimaryInput(t *testing.T) {
	b := NewBuilder("bad")
	a := b.InputNet("a")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{a}})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected driven-primary-input error")
	}
}

func TestBuilderRejectsDuplicateNetNames(t *testing.T) {
	b := NewBuilder("bad")
	b.Net("w")
	b.Net("w")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate-name error, got %v", err)
	}
}

func TestBuilderDepBitsShapeChecked(t *testing.T) {
	b := NewBuilder("bad")
	a := b.InputNet("a")
	z := b.OutputNet("z")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z}, DepBits: [][]int{{1}, {1}}})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected DepBits shape error")
	}
}

func TestBuilderDefaultDepIsFull(t *testing.T) {
	b := NewBuilder("full")
	a := b.InputNet("a")
	bb := b.InputNet("b")
	x := b.OutputNet("x")
	y := b.OutputNet("y")
	id := b.AddCell(CellSpec{Inputs: []NetID{a, bb}, Outputs: []NetID{x, y}})
	g := b.MustBuild()
	if psi := g.Cell(id).ReplicationPotential(); psi != 0 {
		t.Fatalf("full-dependence ψ = %d, want 0", psi)
	}
}

func TestMarkOutput(t *testing.T) {
	b := NewBuilder("mark")
	a := b.InputNet("a")
	w := b.Net("w")
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{w}})
	b.MarkOutput(w)
	g := b.MustBuild()
	if g.Nets[w].Ext != ExtOut {
		t.Fatalf("net ext = %v, want output", g.Nets[w].Ext)
	}
}

func TestDistribution(t *testing.T) {
	b := NewBuilder("dist")
	a := b.InputNet("a")
	c := b.InputNet("c")
	z1 := b.OutputNet("z1")
	x := b.OutputNet("x")
	y := b.OutputNet("y")
	p := b.OutputNet("p")
	q := b.OutputNet("q")
	// Single-output cell.
	b.AddCell(CellSpec{Inputs: []NetID{a}, Outputs: []NetID{z1}})
	// Multi-output ψ=0 cell (both outputs depend on both inputs).
	b.AddCell(CellSpec{Inputs: []NetID{a, c}, Outputs: []NetID{x, y}})
	// Multi-output ψ=2 cell.
	b.AddCell(CellSpec{Inputs: []NetID{a, c}, Outputs: []NetID{p, q},
		DepBits: [][]int{{1, 0}, {0, 1}}})
	g := b.MustBuild()
	d := g.Distribution()
	if d.SingleOutput != 1 || d.MultiZero != 1 || d.ByPsi[2] != 1 || d.Total != 3 {
		t.Fatalf("distribution = %+v", d)
	}
	if got := g.ReplicableCells(0); got != 2 {
		t.Fatalf("ReplicableCells(0) = %d, want 2", got)
	}
	if got := g.ReplicableCells(1); got != 1 {
		t.Fatalf("ReplicableCells(1) = %d, want 1", got)
	}
	if got := g.ReplicableCells(3); got != 0 {
		t.Fatalf("ReplicableCells(3) = %d, want 0", got)
	}
}

// chain builds pi -> c0 -> c1 -> po with an extra tap from c0 to po2.
func chain(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("chain")
	pi := b.InputNet("pi")
	w := b.Net("w")
	po := b.OutputNet("po")
	po2 := b.OutputNet("po2")
	b.AddCell(CellSpec{Name: "c0", Inputs: []NetID{pi}, Outputs: []NetID{w}})
	b.AddCell(CellSpec{Name: "c1", Inputs: []NetID{w}, Outputs: []NetID{po}})
	b.AddCell(CellSpec{Name: "c2", Inputs: []NetID{w}, Outputs: []NetID{po2}})
	return b.MustBuild()
}

func TestSubcircuitBasic(t *testing.T) {
	g := chain(t)
	// Take c0 and c1; net w is then fully internal except c2 uses it ->
	// caller marks w as cut.
	sub, err := g.Subcircuit("side0", []InstanceSpec{{Cell: 0}, {Cell: 1}}, func(n NetID) bool {
		return g.Nets[n].Name == "w"
	})
	if err != nil {
		t.Fatalf("Subcircuit: %v", err)
	}
	if sub.NumCells() != 2 {
		t.Fatalf("cells = %d", sub.NumCells())
	}
	// Nets: pi (ExtIn), w (ExtOut, driver inside), po (ExtOut).
	if sub.NumTerminals() != 3 {
		t.Fatalf("terminals = %d, want 3", sub.NumTerminals())
	}
	var w *Net
	for i := range sub.Nets {
		if sub.Nets[i].Name == "w" {
			w = &sub.Nets[i]
		}
	}
	if w == nil || w.Ext != ExtOut {
		t.Fatalf("cut net w: %+v", w)
	}
}

func TestSubcircuitOtherSideGetsExtIn(t *testing.T) {
	g := chain(t)
	sub, err := g.Subcircuit("side1", []InstanceSpec{{Cell: 2}}, func(n NetID) bool {
		return g.Nets[n].Name == "w"
	})
	if err != nil {
		t.Fatalf("Subcircuit: %v", err)
	}
	var w *Net
	for i := range sub.Nets {
		if sub.Nets[i].Name == "w" {
			w = &sub.Nets[i]
		}
	}
	if w == nil || w.Ext != ExtIn {
		t.Fatalf("cut net w on sink side: %+v", w)
	}
}

func TestSubcircuitFunctionalPinPruning(t *testing.T) {
	g, id := figure1Cell(t)
	// A copy carrying only output Y must keep inputs {b,c} and drop a.
	sub, err := g.Subcircuit("copy", []InstanceSpec{{Cell: id, Outputs: []int{1}, Rename: "M$r"}}, nil)
	if err != nil {
		t.Fatalf("Subcircuit: %v", err)
	}
	c := sub.Cell(0)
	if c.Name != "M$r" {
		t.Fatalf("rename failed: %q", c.Name)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("pins = %d in / %d out, want 2/1", len(c.Inputs), len(c.Outputs))
	}
	// Net a must not appear at all.
	for i := range sub.Nets {
		if sub.Nets[i].Name == "a" {
			t.Fatal("floating input net a retained")
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSubcircuitRejectsBadOutputs(t *testing.T) {
	g, id := figure1Cell(t)
	if _, err := g.Subcircuit("bad", []InstanceSpec{{Cell: id, Outputs: []int{5}}}, nil); err == nil {
		t.Fatal("expected out-of-range output error")
	}
	if _, err := g.Subcircuit("bad", []InstanceSpec{{Cell: id, Outputs: []int{}}}, nil); err == nil {
		t.Fatal("expected empty-output error")
	}
	if _, err := g.Subcircuit("bad", []InstanceSpec{{Cell: id, Outputs: []int{1, 1}}}, nil); err == nil {
		t.Fatal("expected duplicate-output error")
	}
}

func TestRebuildConnsMatchesValidate(t *testing.T) {
	g, _ := figure1Cell(t)
	// Corrupt conns, rebuild, re-validate.
	g.Nets[0].Conns = nil
	g.RebuildConns()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after RebuildConns: %v", err)
	}
}

// A conn list missing one pin passes the forward check (every conn
// matches a pin) and fails the reverse one.
func TestValidateRejectsMissingConn(t *testing.T) {
	g, _ := figure1Cell(t)
	for ni := range g.Nets {
		if len(g.Nets[ni].Conns) > 0 {
			name := g.Nets[ni].Name
			n := len(g.Nets[ni].Conns)
			g.Nets[ni].Conns = g.Nets[ni].Conns[1:]
			err := g.Validate()
			want := fmt.Sprintf("net %q has %d conns but %d referencing pins", name, n-1, n)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, want)
			}
			return
		}
	}
	t.Fatal("figure 1 circuit has no connected net")
}

// RebuildConnsInto reuses a large enough buffer and lays the lists out
// as RebuildConns does.
func TestRebuildConnsIntoReuses(t *testing.T) {
	g, _ := figure1Cell(t)
	want, _ := figure1Cell(t)
	buf := make([]Conn, 64)
	got := g.RebuildConnsInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("RebuildConnsInto replaced a buffer large enough for the graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for ni := range g.Nets {
		if !reflect.DeepEqual(g.Nets[ni].Conns, want.Nets[ni].Conns) {
			t.Fatalf("net %d: conns %v, RebuildConns gives %v", ni, g.Nets[ni].Conns, want.Nets[ni].Conns)
		}
	}
	if got := g.RebuildConnsInto(nil); len(got) != cap(got) {
		t.Fatalf("grown buffer has length %d, capacity %d", len(got), cap(got))
	}
}
