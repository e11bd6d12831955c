package replication

// This file holds the closed-form gain expressions of Section III
// (Eqs. 7–11), stated on the paper's binary vectors. They apply to an
// unreplicated cell whose incident nets are distinct per pin (the
// paper's implicit assumption; mapped netlists satisfy it). The engine
// itself uses the semantic State.Gain, which is exact in all cases;
// these forms exist to match the paper and are property-tested against
// State.Gain.

import (
	"fmt"

	"fpgapart/internal/bitset"
	"fpgapart/internal/hypergraph"
)

// Vectors bundles the per-cell binary vectors of Section III: the
// cutset adjacency vectors C^I, C^O and the critical-net vectors Q^I,
// Q^O. A net is *cut* if it is in the cut set and *critical* if one
// move (of this cell) changes its state.
type Vectors struct {
	CI, QI bitset.Vector // indexed by input pin
	CO, QO bitset.Vector // indexed by output pin
}

// graphCell returns the graph cell behind state cell c, whose pins the
// formulas index: they are stated on a state bound to a whole graph,
// not on a re-targeted one or a V-cycle level.
func (s *State) graphCell(c hypergraph.CellID) (*hypergraph.Cell, error) {
	if s.view || s.g == nil {
		return nil, fmt.Errorf("replication: gain formulas need a state bound to a whole graph")
	}
	return &s.g.Cells[c], nil
}

// inputCol is the mask of the cell's outputs that depend on input j.
func inputCol(cell *hypergraph.Cell, j int) uint32 {
	var m uint32
	for i, d := range cell.Dep {
		if d.Get(j) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Vectors computes C and Q for an unreplicated cell in its current
// block.
func (s *State) Vectors(c hypergraph.CellID) (Vectors, error) {
	cell, err := s.graphCell(c)
	if err != nil {
		return Vectors{}, err
	}
	if s.repl[c] {
		return Vectors{}, fmt.Errorf("replication: Vectors on replicated cell %q", cell.Name)
	}
	home := s.home[c]
	v := Vectors{
		CI: bitset.New(len(cell.Inputs)),
		QI: bitset.New(len(cell.Inputs)),
		CO: bitset.New(len(cell.Outputs)),
		QO: bitset.New(len(cell.Outputs)),
	}
	// Count this cell's active connections per net so that criticality
	// is judged for the whole cell's move.
	k := make(map[hypergraph.NetID]int32, cell.NumPins())
	for _, n := range cell.Outputs {
		k[n]++
	}
	for j, n := range cell.Inputs {
		if n != hypergraph.NilNet && inputCol(cell, j) != 0 {
			k[n]++
		}
	}
	classify := func(n hypergraph.NetID) (cut, critical bool) {
		f, t := s.cnt[n][home], s.cnt[n][home.Other()]
		cut = f > 0 && t > 0
		// Cut net: moving the cell clears the from-side iff it owns all
		// from-side connections. Uncut net: moving creates a cut iff
		// other from-side connections remain behind.
		if cut {
			critical = f == k[n]
		} else {
			critical = f > k[n]
		}
		return cut, critical
	}
	for j, n := range cell.Inputs {
		if n == hypergraph.NilNet || inputCol(cell, j) == 0 {
			continue
		}
		cut, crit := classify(n)
		v.CI.SetBool(j, cut)
		v.QI.SetBool(j, crit)
	}
	for i, n := range cell.Outputs {
		cut, crit := classify(n)
		v.CO.SetBool(i, cut)
		v.QO.SetBool(i, crit)
	}
	return v, nil
}

// GainMoveFormula evaluates Eq. (7):
//
//	G_m = (|C^I·Q^I| + |C^O·Q^O|) − (|C̄^I·Q^I| + |C̄^O·Q^O|)
//
// the gain of moving the (unreplicated) cell to the other block.
func (s *State) GainMoveFormula(c hypergraph.CellID) (int, error) {
	v, err := s.Vectors(c)
	if err != nil {
		return 0, err
	}
	gain := v.CI.And(v.QI).Norm() + v.CO.And(v.QO).Norm()
	loss := v.CI.Not().And(v.QI).Norm() + v.CO.Not().And(v.QO).Norm()
	return gain - loss, nil
}

// GainTraditionalFormula evaluates Eq. (8): G_tr = (|C^I| + |C^O|) − n,
// the gain of traditional (Kring–Newton style) replication, which
// removes every incident net from the cut but re-adds all n input
// nets. It is provided for comparison only; the engine performs
// functional replication.
func (s *State) GainTraditionalFormula(c hypergraph.CellID) (int, error) {
	v, err := s.Vectors(c)
	if err != nil {
		return 0, err
	}
	cell, err := s.graphCell(c)
	if err != nil {
		return 0, err
	}
	n := 0
	for j, net := range cell.Inputs {
		if net != hypergraph.NilNet && inputCol(cell, j) != 0 {
			n++
		}
	}
	return v.CI.Norm() + v.CO.Norm() - n, nil
}

// GainFunctionalFormula evaluates the generalized Eqs. (9)–(10): the
// gain of functionally replicating the cell with the replica carrying
// the outputs in carry. Input pins adjacent only to the carried
// outputs relocate with the replica; pins adjacent to outputs on both
// sides stay connected in the home block *and* gain a connection in
// the other block; pins adjacent only to the kept outputs are
// untouched.
func (s *State) GainFunctionalFormula(c hypergraph.CellID, carry uint32) (int, error) {
	cell, err := s.graphCell(c)
	if err != nil {
		return 0, err
	}
	if s.repl[c] {
		return 0, fmt.Errorf("replication: functional gain on replicated cell %q", cell.Name)
	}
	all := s.all[c]
	if carry == 0 || carry == all || carry&^all != 0 {
		return 0, fmt.Errorf("replication: carry %b not a proper non-empty subset of %b", carry, all)
	}
	v, err := s.Vectors(c)
	if err != nil {
		return 0, err
	}
	// Classify inputs by adjacency against the carried output set.
	onlyCarried := bitset.New(len(cell.Inputs))
	both := bitset.New(len(cell.Inputs))
	for j := range cell.Inputs {
		col := inputCol(cell, j)
		inS := col&carry != 0
		inKeep := col&^carry != 0
		switch {
		case inS && inKeep:
			both.Set(j)
		case inS:
			onlyCarried.Set(j)
		}
	}
	gain := 0
	// Relocating pins behave as in Eq. (7), restricted to the carried
	// adjacency (the A_X masks of Eqs. 9–10).
	gain += v.CI.And(v.QI).And(onlyCarried).Norm()
	gain -= v.CI.Not().And(v.QI).And(onlyCarried).Norm()
	for i := range cell.Outputs {
		if carry&(1<<uint(i)) == 0 {
			continue
		}
		if v.CO.Get(i) && v.QO.Get(i) {
			gain++
		}
		if !v.CO.Get(i) && v.QO.Get(i) {
			gain--
		}
	}
	// Dual-adjacent inputs acquire a second connection: every such
	// uncut net joins the cut.
	gain -= v.CI.Not().And(both).Norm()
	return gain, nil
}

// GainFunctionalBest evaluates Eq. (11) generalized: the best
// functional-replication gain over the candidate output splits, and
// the carry mask achieving it. ok is false when the cell has no valid
// split (single-output cells).
func (s *State) GainFunctionalBest(c hypergraph.CellID) (gain int, carry uint32, ok bool, err error) {
	splits := s.Splits(c)
	if len(splits) == 0 {
		return 0, 0, false, nil
	}
	best, bestCarry := 0, uint32(0)
	for i, m := range splits {
		g, err := s.GainFunctionalFormula(c, m)
		if err != nil {
			return 0, 0, false, err
		}
		if i == 0 || g > best {
			best, bestCarry = g, m
		}
	}
	return best, bestCarry, true, nil
}
