// Package techmap maps gate-level netlists into XC3000-style CLBs:
// combinational logic is covered by LUTs of up to four inputs, D
// flip-flops are absorbed into the CLB whose LUT feeds them, and LUT
// pairs are packed into two-output CLBs sharing at most five distinct
// inputs — the mapped form the partitioner (and the paper) operates
// on. The result carries per-output truth tables so mapping can be
// verified functionally against the source netlist (see Simulator).
package techmap

import (
	"fmt"
	"sort"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/netlist"
)

// MaxLUTInputs is the per-function fan-in bound (XC3000 F/G
// generators).
const MaxLUTInputs = 4

// MaxCLBInputs is the distinct-input bound of a two-output CLB.
const MaxCLBInputs = 5

// LUT is one mapped function: a truth table over the support nets. A
// registered LUT drives its output through the CLB flip-flop.
type LUT struct {
	Support []string // input net names, position = truth-table bit
	TT      uint16   // truth table: bit i = value at input pattern i
	Out     string   // output net name
	Reg     bool     // output registered (absorbed DFF)
}

// Eval computes the LUT function for the given support values.
func (l *LUT) Eval(in []bool) bool {
	if len(in) != len(l.Support) {
		panic(fmt.Sprintf("techmap: LUT %s evaluated with %d inputs, want %d", l.Out, len(in), len(l.Support)))
	}
	idx := 0
	for i, v := range in {
		if v {
			idx |= 1 << uint(i)
		}
	}
	return l.TT&(1<<uint(idx)) != 0
}

// CLB is one mapped cell: one or two LUTs with at most five distinct
// inputs.
type CLB struct {
	LUTs []LUT
}

// Mapped is the result of technology mapping.
type Mapped struct {
	Graph *hypergraph.Graph
	CLBs  []CLB
	// Inputs/Outputs mirror the source netlist's primary nets that
	// survived mapping.
	Inputs, Outputs []string
}

// Options tunes the mapper.
type Options struct {
	// DistantPackFrac mimics area-driven packers that pair leftovers
	// across regions (0 = only neighboring LUTs pack). Default 0.
	DistantPackFrac float64
	Seed            int64
}

// Map technology-maps the netlist.
func Map(n *netlist.Netlist, opts Options) (*Mapped, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	dec, err := decomposeWide(n)
	if err != nil {
		return nil, err
	}
	luts, err := cover(dec)
	if err != nil {
		return nil, err
	}
	clbs := pack(luts, opts)
	g, err := emit(dec, clbs)
	if err != nil {
		return nil, err
	}
	return &Mapped{
		Graph:   g,
		CLBs:    clbs,
		Inputs:  append([]string(nil), dec.Inputs...),
		Outputs: append([]string(nil), dec.Outputs...),
	}, nil
}

// decomposeWide rewrites gates with fan-in above MaxLUTInputs into
// balanced trees of narrow gates (inverting types become a base-type
// tree plus a final Not).
func decomposeWide(n *netlist.Netlist) (*netlist.Netlist, error) {
	out := &netlist.Netlist{
		Name:    n.Name,
		Inputs:  append([]string(nil), n.Inputs...),
		Outputs: append([]string(nil), n.Outputs...),
	}
	fresh := 0
	tmp := func() string {
		fresh++
		return fmt.Sprintf("_tm%d", fresh)
	}
	var tree func(t netlist.GateType, ins []string) string
	tree = func(t netlist.GateType, ins []string) string {
		if len(ins) == 1 {
			return ins[0]
		}
		if len(ins) <= MaxLUTInputs {
			o := tmp()
			out.Gates = append(out.Gates, netlist.Gate{Name: "g_" + o, Type: t, Out: o, Ins: append([]string(nil), ins...)})
			return o
		}
		mid := len(ins) / 2
		a := tree(t, ins[:mid])
		b := tree(t, ins[mid:])
		o := tmp()
		out.Gates = append(out.Gates, netlist.Gate{Name: "g_" + o, Type: t, Out: o, Ins: []string{a, b}})
		return o
	}
	// shannon splits a wide Lut f(x1..xk) into the mux of its two
	// cofactors on the last input, recursing until each piece fits.
	var shannon func(name, outNet string, ins []string, tt []bool)
	shannon = func(name, outNet string, ins []string, tt []bool) {
		if len(ins) <= MaxLUTInputs {
			out.Gates = append(out.Gates, netlist.Gate{Name: name, Type: netlist.Lut, Out: outNet, Ins: append([]string(nil), ins...), TT: tt})
			return
		}
		// Cofactor on the last input: tt is indexed with Ins[0] as bit
		// 0, so the two halves over the remaining inputs interleave.
		k := len(ins) - 1
		f0 := make([]bool, 1<<uint(k))
		f1 := make([]bool, 1<<uint(k))
		for i := range f0 {
			f0[i] = tt[i]
			f1[i] = tt[i|1<<uint(k)]
		}
		n0, n1 := tmp(), tmp()
		shannon(name+"_c0", n0, ins[:k], f0)
		shannon(name+"_c1", n1, ins[:k], f1)
		sel := ins[k]
		nsel, a0, a1 := tmp(), tmp(), tmp()
		out.Gates = append(out.Gates,
			netlist.Gate{Name: name + "_n", Type: netlist.Not, Out: nsel, Ins: []string{sel}},
			netlist.Gate{Name: name + "_a0", Type: netlist.And, Out: a0, Ins: []string{nsel, n0}},
			netlist.Gate{Name: name + "_a1", Type: netlist.And, Out: a1, Ins: []string{sel, n1}},
			netlist.Gate{Name: name + "_o", Type: netlist.Or, Out: outNet, Ins: []string{a0, a1}},
		)
	}
	for i := range n.Gates {
		g := n.Gates[i]
		if len(g.Ins) <= MaxLUTInputs {
			out.Gates = append(out.Gates, g)
			continue
		}
		if g.Type == netlist.Lut {
			shannon(g.Name, g.Out, g.Ins, g.TT)
			continue
		}
		var base netlist.GateType
		invert := false
		switch g.Type {
		case netlist.And, netlist.Or, netlist.Xor:
			base = g.Type
		case netlist.Nand:
			base, invert = netlist.And, true
		case netlist.Nor:
			base, invert = netlist.Or, true
		case netlist.Xnor:
			base, invert = netlist.Xor, true
		default:
			return nil, fmt.Errorf("techmap: gate %q (%v) has unsupported wide fan-in %d", g.Name, g.Type, len(g.Ins))
		}
		root := tree(base, g.Ins)
		if invert {
			out.Gates = append(out.Gates, netlist.Gate{Name: g.Name, Type: netlist.Not, Out: g.Out, Ins: []string{root}})
		} else {
			// The tree's root must drive the original output net:
			// rename the last emitted gate.
			last := &out.Gates[len(out.Gates)-1]
			last.Name = g.Name
			last.Out = g.Out
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("techmap: decomposition broke the netlist: %w", err)
	}
	return out, nil
}

// cover collapses combinational cones into LUTs with at most
// MaxLUTInputs support nets (inlining by logic duplication, as LUT
// mappers do), absorbs flip-flops into their feeding LUT when that LUT
// has no other fanout, and finally sweeps logic that no primary output
// or live flip-flop observes.
func cover(n *netlist.Netlist) ([]LUT, error) {
	drivers, err := n.DriverIndex()
	if err != nil {
		return nil, err
	}
	fanout := make(map[string]int)
	for i := range n.Gates {
		for _, in := range n.Gates[i].Ins {
			fanout[in]++
		}
	}
	for _, po := range n.Outputs {
		fanout[po]++
	}

	// lutOf[net] = index into luts of the LUT driving net.
	lutOf := make(map[string]int)
	var luts []LUT

	evalCone := func(support []string, root string) (uint16, error) {
		// Evaluate the cone driving root over every support pattern by
		// recursive interpretation of the gates.
		pos := make(map[string]int, len(support))
		for i, s := range support {
			pos[s] = i
		}
		var tt uint16
		for pattern := 0; pattern < 1<<uint(len(support)); pattern++ {
			var eval func(net string) (bool, error)
			memo := make(map[string]bool)
			eval = func(net string) (bool, error) {
				if p, ok := pos[net]; ok {
					return pattern&(1<<uint(p)) != 0, nil
				}
				if v, ok := memo[net]; ok {
					return v, nil
				}
				gi, ok := drivers[net]
				if !ok || gi < 0 {
					return false, fmt.Errorf("techmap: cone support missing net %q", net)
				}
				g := &n.Gates[gi]
				ins := make([]bool, len(g.Ins))
				for i, in := range g.Ins {
					v, err := eval(in)
					if err != nil {
						return false, err
					}
					ins[i] = v
				}
				v := g.Eval(ins)
				memo[net] = v
				return v, nil
			}
			v, err := eval(root)
			if err != nil {
				return 0, err
			}
			if v {
				tt |= 1 << uint(pattern)
			}
		}
		return tt, nil
	}

	order, err := topoCombOrder(n, drivers)
	if err != nil {
		return nil, err
	}
	for _, gi := range order {
		g := &n.Gates[gi]
		// Build the support: every distinct input starts as a boundary
		// net (one reference each); inlining a fan-in LUT's cone (by
		// duplication — the fan-in LUT survives for its other users and
		// is swept later if none remain) trades that reference for
		// references to the cone's support, accepted only while the
		// boundary stays within MaxLUTInputs.
		ref := make(map[string]int, MaxLUTInputs)
		for _, in := range g.Ins {
			if _, dup := ref[in]; !dup {
				ref[in] = 1
			}
		}
		for _, in := range g.Ins {
			li, isLUT := lutOf[in]
			if !isLUT || luts[li].Reg || ref[in] != 1 {
				continue // not inlineable, or another cone needs this boundary
			}
			size := len(ref) - 1
			for _, s := range luts[li].Support {
				if ref[s] == 0 {
					size++
				}
			}
			if size > MaxLUTInputs {
				continue
			}
			delete(ref, in)
			for _, s := range luts[li].Support {
				ref[s]++
			}
		}
		support := make([]string, 0, len(ref))
		for s := range ref {
			support = append(support, s)
		}
		sort.Strings(support)
		if len(support) > MaxLUTInputs {
			return nil, fmt.Errorf("techmap: gate %q support %d exceeds %d after decomposition",
				g.Name, len(support), MaxLUTInputs)
		}
		tt, err := evalCone(support, g.Out)
		if err != nil {
			return nil, err
		}
		lutOf[g.Out] = len(luts)
		luts = append(luts, LUT{Support: support, TT: tt, Out: g.Out})
	}

	// Flip-flop absorption.
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Type != netlist.Dff {
			continue
		}
		src := g.Ins[0]
		if li, ok := lutOf[src]; ok && fanout[src] == 1 && !luts[li].Reg {
			luts[li].Reg = true
			luts[li].Out = g.Out
			delete(lutOf, src)
			lutOf[g.Out] = li
			continue
		}
		// Standalone flip-flop: identity LUT, registered.
		lutOf[g.Out] = len(luts)
		luts = append(luts, LUT{Support: []string{src}, TT: 0b10, Out: g.Out, Reg: true})
	}

	// Sweep: keep only LUTs observable from a primary output, walking
	// backwards through supports (and through flip-flops).
	live := make(map[string]bool, len(n.Outputs))
	work := append([]string(nil), n.Outputs...)
	for _, po := range n.Outputs {
		live[po] = true
	}
	for len(work) > 0 {
		net := work[len(work)-1]
		work = work[:len(work)-1]
		li, ok := lutOf[net]
		if !ok {
			continue // primary input
		}
		for _, s := range luts[li].Support {
			if !live[s] {
				live[s] = true
				work = append(work, s)
			}
		}
	}
	final := make([]LUT, 0, len(luts))
	for li := range luts {
		if live[luts[li].Out] {
			final = append(final, luts[li])
		}
	}
	return final, nil
}

// topoCombOrder returns combinational gates in topological order.
func topoCombOrder(n *netlist.Netlist, drivers map[string]int) ([]int, error) {
	color := make([]uint8, len(n.Gates))
	order := make([]int, 0, len(n.Gates))
	var visit func(gi int) error
	visit = func(gi int) error {
		switch color[gi] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("techmap: combinational cycle at %q", n.Gates[gi].Name)
		}
		color[gi] = 1
		for _, in := range n.Gates[gi].Ins {
			if di, ok := drivers[in]; ok && di >= 0 && n.Gates[di].Type != netlist.Dff {
				if err := visit(di); err != nil {
					return err
				}
			}
		}
		color[gi] = 2
		order = append(order, gi)
		return nil
	}
	for gi := range n.Gates {
		if n.Gates[gi].Type == netlist.Dff {
			color[gi] = 2
			continue
		}
		if err := visit(gi); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// emit builds the mapped hypergraph from the packed CLBs. Primary
// inputs that lost all their sinks during covering are dropped.
func emit(n *netlist.Netlist, clbs []CLB) (*hypergraph.Graph, error) {
	b := hypergraph.NewBuilder(n.Name)
	poSet := make(map[string]bool, len(n.Outputs))
	for _, po := range n.Outputs {
		poSet[po] = true
	}
	// Which nets are actually used by the mapped cells?
	used := make(map[string]bool)
	for ci := range clbs {
		for _, l := range clbs[ci].LUTs {
			used[l.Out] = true
			for _, s := range l.Support {
				used[s] = true
			}
		}
	}
	netID := make(map[string]hypergraph.NetID)
	for _, pi := range n.Inputs {
		if used[pi] {
			netID[pi] = b.InputNet(pi)
		}
	}
	getNet := func(name string) hypergraph.NetID {
		if id, ok := netID[name]; ok {
			return id
		}
		id := b.Net(name)
		netID[name] = id
		return id
	}
	for ci, c := range clbs {
		var inputs []hypergraph.NetID
		pos := make(map[string]int)
		for _, l := range c.LUTs {
			for _, s := range l.Support {
				if _, ok := pos[s]; !ok {
					pos[s] = len(inputs)
					inputs = append(inputs, getNet(s))
				}
			}
		}
		outputs := make([]hypergraph.NetID, len(c.LUTs))
		dep := make([][]int, len(c.LUTs))
		dffs := 0
		for oi, l := range c.LUTs {
			outputs[oi] = getNet(l.Out)
			row := make([]int, len(inputs))
			for _, s := range l.Support {
				row[pos[s]] = 1
			}
			dep[oi] = row
			if l.Reg {
				dffs++
			}
		}
		b.AddCell(hypergraph.CellSpec{
			Name:    fmt.Sprintf("clb%d", ci),
			Inputs:  inputs,
			Outputs: outputs,
			DepBits: dep,
			DFFs:    dffs,
		})
	}
	// Mark primary outputs.
	var poNames []string
	for po := range poSet {
		poNames = append(poNames, po)
	}
	sort.Strings(poNames)
	piSet := make(map[string]bool, len(n.Inputs))
	for _, pi := range n.Inputs {
		piSet[pi] = true
	}
	for _, po := range poNames {
		id, ok := netID[po]
		if !ok {
			return nil, fmt.Errorf("techmap: primary output %q vanished during mapping", po)
		}
		if piSet[po] {
			continue // PO aliasing a PI stays an input net
		}
		b.MarkOutput(id)
	}
	return b.Build()
}

// Depth returns the maximum LUT depth of the mapped circuit: the
// longest LUT-count path from a primary input or register output to a
// primary output or register input — the first-order delay metric of
// LUT mapping.
func (m *Mapped) Depth() (int, error) {
	sim, err := NewSimulator(m)
	if err != nil {
		return 0, err
	}
	level := make(map[string]int, len(sim.luts))
	max := 0
	for _, i := range sim.order {
		l := sim.luts[i]
		if l.Reg {
			continue
		}
		d := 0
		for _, s := range l.Support {
			if v, ok := level[s]; ok && v > d {
				d = v
			}
		}
		d++
		level[l.Out] = d
		if d > max {
			max = d
		}
	}
	return max, nil
}
