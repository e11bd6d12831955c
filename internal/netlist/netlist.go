// Package netlist models gate-level logic circuits — the input the
// XC3000 technology mapper (package techmap) consumes before the
// partitioner sees a mapped hypergraph. It provides a validated
// in-memory model, a line-oriented text format, cycle-aware logic
// simulation and a random circuit generator.
package netlist

import (
	"fmt"
)

// GateType enumerates supported primitives.
type GateType uint8

const (
	And GateType = iota
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Dff // D flip-flop: single input, output follows at the next Step
	Lut // generic truth-table gate; see Gate.TT
)

var gateNames = [...]string{"and", "or", "nand", "nor", "xor", "xnor", "not", "buf", "dff", "lut"}

func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType resolves a type keyword.
func ParseGateType(s string) (GateType, bool) {
	for i, n := range gateNames {
		if n == s {
			return GateType(i), true
		}
	}
	return 0, false
}

// MaxFanin returns the legal fan-in range for the type.
func (t GateType) MaxFanin() (min, max int) {
	switch t {
	case Not, Buf, Dff:
		return 1, 1
	case Lut:
		return 0, 16
	default:
		return 2, 16
	}
}

// Eval computes the gate function over the input values (Dff gates are
// handled by the simulator, not here).
func (t GateType) Eval(in []bool) bool {
	switch t {
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	case Not:
		return !in[0]
	case Buf, Dff:
		return in[0]
	}
	panic(fmt.Sprintf("netlist: eval of %v", t))
}

// Gate is one primitive instance. Out names the driven net; Ins name
// the fan-in nets. Lut gates carry an explicit truth table: TT[i] is
// the output when the inputs spell i (Ins[0] = bit 0).
type Gate struct {
	Name string
	Type GateType
	Out  string
	Ins  []string
	TT   []bool // Lut only; length 1<<len(Ins)
}

// Eval computes the gate's output for the given input values.
func (g *Gate) Eval(in []bool) bool {
	if g.Type == Lut {
		idx := 0
		for i, v := range in {
			if v {
				idx |= 1 << uint(i)
			}
		}
		return g.TT[idx]
	}
	return g.Type.Eval(in)
}

// Netlist is a gate-level circuit.
type Netlist struct {
	Name    string
	Inputs  []string // primary input nets
	Outputs []string // primary output nets
	Gates   []Gate
}

// NumDFF counts flip-flops.
func (n *Netlist) NumDFF() int {
	d := 0
	for i := range n.Gates {
		if n.Gates[i].Type == Dff {
			d++
		}
	}
	return d
}

// DriverIndex maps each net to the driving gate index, or -1 for
// primary inputs.
func (n *Netlist) DriverIndex() (map[string]int, error) {
	idx := make(map[string]int, len(n.Gates)+len(n.Inputs))
	for _, pi := range n.Inputs {
		if _, dup := idx[pi]; dup {
			return nil, fmt.Errorf("netlist %q: duplicate primary input %q", n.Name, pi)
		}
		idx[pi] = -1
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if prev, dup := idx[g.Out]; dup {
			who := "a primary input"
			if prev >= 0 {
				who = fmt.Sprintf("gate %q", n.Gates[prev].Name)
			}
			return nil, fmt.Errorf("netlist %q: net %q driven by gate %q and %s", n.Name, g.Out, g.Name, who)
		}
		idx[g.Out] = gi
	}
	return idx, nil
}

// Validate checks structural sanity: unique gate names, every net
// driven exactly once, every fan-in and primary output driven, fan-in
// arities legal, and no combinational cycles (cycles must pass through
// a Dff).
func (n *Netlist) Validate() error {
	drivers, err := n.DriverIndex()
	if err != nil {
		return err
	}
	names := make(map[string]bool, len(n.Gates))
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Name == "" {
			return fmt.Errorf("netlist %q: gate %d has no name", n.Name, gi)
		}
		if names[g.Name] {
			return fmt.Errorf("netlist %q: duplicate gate name %q", n.Name, g.Name)
		}
		names[g.Name] = true
		lo, hi := g.Type.MaxFanin()
		if len(g.Ins) < lo || len(g.Ins) > hi {
			return fmt.Errorf("netlist %q: gate %q (%v) has %d inputs, want %d..%d",
				n.Name, g.Name, g.Type, len(g.Ins), lo, hi)
		}
		if g.Type == Lut {
			if len(g.TT) != 1<<uint(len(g.Ins)) {
				return fmt.Errorf("netlist %q: gate %q truth table has %d rows, want %d",
					n.Name, g.Name, len(g.TT), 1<<uint(len(g.Ins)))
			}
		} else if g.TT != nil {
			return fmt.Errorf("netlist %q: gate %q (%v) must not carry a truth table", n.Name, g.Name, g.Type)
		}
		for _, in := range g.Ins {
			if _, ok := drivers[in]; !ok {
				return fmt.Errorf("netlist %q: gate %q input %q is undriven", n.Name, g.Name, in)
			}
		}
	}
	for _, po := range n.Outputs {
		if _, ok := drivers[po]; !ok {
			return fmt.Errorf("netlist %q: primary output %q is undriven", n.Name, po)
		}
	}
	if _, err := n.topoOrder(drivers); err != nil {
		return err
	}
	return nil
}

// topoOrder returns gate indices in combinational topological order.
// Dff gates are sources (their outputs are state) and sinks (their
// inputs are computed last); they appear in the order after everything
// feeding them.
func (n *Netlist) topoOrder(drivers map[string]int) ([]int, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(n.Gates))
	order := make([]int, 0, len(n.Gates))
	var visit func(gi int) error
	visit = func(gi int) error {
		switch color[gi] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("netlist %q: combinational cycle through gate %q", n.Name, n.Gates[gi].Name)
		}
		color[gi] = grey
		if n.Gates[gi].Type != Dff {
			for _, in := range n.Gates[gi].Ins {
				if di := drivers[in]; di >= 0 && n.Gates[di].Type != Dff {
					if err := visit(di); err != nil {
						return err
					}
				}
			}
		}
		color[gi] = black
		order = append(order, gi)
		return nil
	}
	// Deterministic order: visit gates in index order.
	for gi := range n.Gates {
		if n.Gates[gi].Type == Dff {
			color[gi] = black
			continue
		}
		if err := visit(gi); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Stats summarizes the netlist.
type Stats struct {
	Gates, DFFs, Inputs, Outputs, Nets int
}

// Stats computes summary counts.
func (n *Netlist) Stats() Stats {
	nets := make(map[string]bool)
	for _, pi := range n.Inputs {
		nets[pi] = true
	}
	for i := range n.Gates {
		nets[n.Gates[i].Out] = true
		for _, in := range n.Gates[i].Ins {
			nets[in] = true
		}
	}
	return Stats{
		Gates: len(n.Gates), DFFs: n.NumDFF(),
		Inputs: len(n.Inputs), Outputs: len(n.Outputs), Nets: len(nets),
	}
}
