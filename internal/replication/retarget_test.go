package replication

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/hypergraph"
)

// A re-targeted state must equal a state rebound onto the remainder
// graph hypergraph.Subcircuit extracts for block 1, through a chain of
// carves with replication on (every split allowed, T = 0). Cells keep
// their order in both, so the cell map is the identity; the test
// checks that it also maps each cell and net to the same source cell,
// outputs and net, and that both states then move alike.
func TestRetargetMatchesRebind(t *testing.T) {
	retargets, narrowed := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := liveNetlist(r, 30+r.Intn(50))
		pin := seed%2 == 0
		view, err := NewStatePinned(g, randomAssign(r, g.NumCells()), pin)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewStatePinned(g, view.home, pin)
		if err != nil {
			t.Fatal(err)
		}
		rg := g
		for depth := 1; ; depth++ {
			// Bipartition both alike: a random assignment, then random
			// moves with replication.
			assign := randomAssign(r, view.NumCells())
			if err := view.ResetPinned(assign, pin); err != nil {
				t.Fatal(err)
			}
			if err := ref.ResetPinned(assign, pin); err != nil {
				t.Fatal(err)
			}
			driveAlike(t, r, view, ref, 3*view.NumCells())
			if view.Area(1) == 0 || view.Area(0) == 0 {
				break
			}
			next, err := rg.Subcircuit(rg.Name+".1", ref.InstanceSpecs(1), ref.CutNet)
			if err != nil {
				t.Fatal(err)
			}
			ones := make([]Block, next.NumCells())
			for i := range ones {
				ones[i] = 1
			}
			if err := ref.Rebind(next, ones, pin); err != nil {
				t.Fatal(err)
			}
			rg = next
			view.Retarget()
			if err := view.ResetPinned(ones, pin); err != nil {
				t.Fatal(err)
			}
			compareRetarget(t, g, view, ref)
			if t.Failed() {
				t.Fatalf("seed %d depth %d", seed, depth)
			}
			retargets++
			for ci := range view.NumCells() {
				c := hypergraph.CellID(ci)
				if view.NumOutputs(c) < len(g.Cells[view.Source(c)].Outputs) {
					narrowed++
				}
			}
			if view.NumCells() < 4 {
				break
			}
		}
		// Back to the whole graph, as the next carve attempt binds it:
		// the re-targeted state must turn into a fresh one.
		assign := randomAssign(r, g.NumCells())
		if err := view.Rebind(g, assign, pin); err != nil {
			t.Fatal(err)
		}
		if err := ref.Rebind(g, assign, pin); err != nil {
			t.Fatal(err)
		}
		compareRetarget(t, g, view, ref)
		driveAlike(t, r, view, ref, 2*g.NumCells())
		if t.Failed() {
			t.Fatalf("seed %d: the state rebound to the whole graph differs from a fresh one", seed)
		}
	}
	// The chains must be deep and carry narrowed cells for the
	// comparison to cover the functional-replication rule.
	t.Logf("%d re-targets, %d narrowed cells", retargets, narrowed)
	if retargets < 24 || narrowed < 24 {
		t.Fatalf("%d re-targets and %d narrowed cells, want at least 24 of each", retargets, narrowed)
	}
}

// liveNetlist is a randomNetlist without dead nets: every net it
// drives internally feeds some output of a sink, so every block of it
// extracts as a valid subcircuit.
func liveNetlist(r *rand.Rand, cells int) *hypergraph.Graph {
	for {
		g := randomNetlist(r, cells)
		live := make([]bool, g.NumNets())
		for ci := range g.Cells {
			c := &g.Cells[ci]
			for j, n := range c.Inputs {
				for _, dep := range c.Dep {
					if n != hypergraph.NilNet && dep.Get(j) {
						live[n] = true
					}
				}
			}
		}
		dead := false
		for ni := range g.Nets {
			dead = dead || g.Nets[ni].Ext == hypergraph.Internal && !live[ni]
		}
		if !dead {
			return g
		}
	}
}

func randomAssign(r *rand.Rand, n int) []Block {
	assign := make([]Block, n)
	for i := range assign {
		assign[i] = Block(r.Intn(2))
	}
	return assign
}

// driveAlike applies the same random moves to two states of the same
// numbering, checking after each that they agree.
func driveAlike(t *testing.T, r *rand.Rand, a, b *State, moves int) {
	t.Helper()
	a.PrepareSplitGains()
	b.PrepareSplitGains()
	for i := 0; i < moves; i++ {
		m := randomMove(r, a)
		if _, err := a.Apply(m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Apply(m); err != nil {
			t.Fatal(err)
		}
		compareDynamic(t, a, b)
		if t.Failed() {
			t.Fatalf("after move %d (%v)", i, m)
		}
	}
	for _, st := range []*State{a, b} {
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// compareDynamic compares what the FM engines read of a partition.
func compareDynamic(t *testing.T, a, b *State) {
	t.Helper()
	if a.CutSize() != b.CutSize() || a.Area(0) != b.Area(0) || a.Area(1) != b.Area(1) ||
		a.Terminals(0) != b.Terminals(0) || a.Terminals(1) != b.Terminals(1) {
		t.Errorf("cut %d/%d, area %d,%d/%d,%d, terminals %d,%d/%d,%d",
			a.CutSize(), b.CutSize(), a.Area(0), a.Area(1), b.Area(0), b.Area(1),
			a.Terminals(0), a.Terminals(1), b.Terminals(0), b.Terminals(1))
		return
	}
	var ga, gb [MaxSplits]int
	for ci := range a.NumCells() {
		c := hypergraph.CellID(ci)
		if a.IsReplicated(c) != b.IsReplicated(c) || a.Home(c) != b.Home(c) {
			t.Errorf("cell %d: replication or home differ", c)
			return
		}
		if a.IsReplicated(c) {
			continue
		}
		if a.SingleGain(c) != b.SingleGain(c) {
			t.Errorf("cell %d: single gain %d, rebound %d", c, a.SingleGain(c), b.SingleGain(c))
			return
		}
		if sa, sb := a.SplitGains(c, ga[:]), b.SplitGains(c, gb[:]); !slices.Equal(sa, sb) {
			t.Errorf("cell %d: split gains %v, rebound %v", c, sa, sb)
			return
		}
	}
}

// compareRetarget compares a re-targeted state with the state rebound
// onto the remainder graph: the static tables, the map back to the
// source g, and the fresh partition.
func compareRetarget(t *testing.T, g *hypergraph.Graph, view, ref *State) {
	t.Helper()
	rg := ref.g
	if view.NumCells() != rg.NumCells() || view.NumNets() != rg.NumNets() {
		t.Errorf("%d cells, %d nets; remainder graph %d, %d", view.NumCells(), view.NumNets(), rg.NumCells(), rg.NumNets())
		return
	}
	if view.TotalArea() != rg.TotalArea() || view.NumExternal() != rg.NumTerminals() || view.MaxCellDegree() != ref.MaxCellDegree() {
		t.Errorf("area %d, terminals %d, degree %d; remainder %d, %d, %d",
			view.TotalArea(), view.NumExternal(), view.MaxCellDegree(), rg.TotalArea(), rg.NumTerminals(), ref.MaxCellDegree())
		return
	}
	srcOf := make(map[string]hypergraph.CellID, g.NumCells())
	for ci := range g.Cells {
		srcOf[g.Cells[ci].Name] = hypergraph.CellID(ci)
	}
	for ci := range view.NumCells() {
		c := hypergraph.CellID(ci)
		rc := &rg.Cells[ci]
		if src := srcOf[strings.TrimRight(rc.Name, "$r")]; view.Source(c) != src {
			t.Errorf("cell %d is %q, view maps it to %q", c, rc.Name, g.Cells[view.Source(c)].Name)
			return
		}
		outs := view.SourceOutputs(c, view.AllOutputs(c))
		var names []string
		for i, n := range g.Cells[view.Source(c)].Outputs {
			if outs>>uint(i)&1 != 0 {
				names = append(names, g.Nets[n].Name)
			}
		}
		var want []string
		for _, n := range rc.Outputs {
			want = append(want, rg.Nets[n].Name)
		}
		if !slices.Equal(names, want) {
			t.Errorf("cell %q drives %v, view maps it to %v", rc.Name, want, names)
			return
		}
		if view.psi[c] != ref.psi[c] || view.CellArea(c) != rc.Area || view.NumOutputs(c) != len(rc.Outputs) {
			t.Errorf("cell %q: ψ %d, area %d, outputs %d; remainder %d, %d, %d",
				rc.Name, view.psi[c], view.CellArea(c), view.NumOutputs(c), ref.psi[c], rc.Area, len(rc.Outputs))
			return
		}
		if !slices.Equal(view.Splits(c), ref.Splits(c)) || !slices.Equal(view.CellNets(c), ref.CellNets(c)) {
			t.Errorf("cell %q: splits %v nets %v; remainder %v, %v", rc.Name, view.Splits(c), view.CellNets(c), ref.Splits(c), ref.CellNets(c))
			return
		}
	}
	for ni := range view.NumNets() {
		n := hypergraph.NetID(ni)
		if g.Nets[view.SourceNet(n)].Name != rg.Nets[n].Name || view.IsExternal(n) != (rg.Nets[n].Ext != hypergraph.Internal) {
			t.Errorf("net %d is %q (external %v), view maps it to %q (external %v)",
				n, rg.Nets[n].Name, rg.Nets[n].Ext != hypergraph.Internal, g.Nets[view.SourceNet(n)].Name, view.IsExternal(n))
			return
		}
		if !slices.Equal(view.NetConns(n), ref.NetConns(n)) {
			t.Errorf("net %q: conns %v, remainder %v", rg.Nets[n].Name, view.NetConns(n), ref.NetConns(n))
			return
		}
	}
	if err := view.CheckInvariants(); err != nil {
		t.Error(err)
		return
	}
	view.PrepareSplitGains()
	ref.PrepareSplitGains()
	compareDynamic(t, view, ref)
}
