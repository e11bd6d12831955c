package netlist

import "fmt"

// Simulator evaluates a netlist cycle by cycle. Flip-flop state is
// kept per Dff gate and advances on Step.
type Simulator struct {
	n       *Netlist
	drivers map[string]int
	order   []int
	state   map[string]bool // Dff output net -> current value
}

// NewSimulator validates the netlist and prepares evaluation order.
func NewSimulator(n *Netlist) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	drivers, err := n.DriverIndex()
	if err != nil {
		return nil, err
	}
	order, err := n.topoOrder(drivers)
	if err != nil {
		return nil, err
	}
	s := &Simulator{n: n, drivers: drivers, order: order, state: make(map[string]bool)}
	return s, nil
}

// Step evaluates one clock cycle: combinational logic settles from the
// inputs and current state, primary outputs are sampled, then every
// flip-flop captures its D input. Missing inputs default to false.
func (s *Simulator) Step(inputs map[string]bool) (map[string]bool, error) {
	values := make(map[string]bool, len(s.n.Gates)+len(s.n.Inputs))
	for _, pi := range s.n.Inputs {
		values[pi] = inputs[pi]
	}
	for i := range s.n.Gates {
		g := &s.n.Gates[i]
		if g.Type == Dff {
			values[g.Out] = s.state[g.Out]
		}
	}
	ins := make([]bool, 0, 8)
	for _, gi := range s.order {
		g := &s.n.Gates[gi]
		if g.Type == Dff {
			continue
		}
		ins = ins[:0]
		for _, in := range g.Ins {
			v, ok := values[in]
			if !ok {
				return nil, fmt.Errorf("netlist %q: net %q evaluated before its driver (gate %q)", s.n.Name, in, g.Name)
			}
			ins = append(ins, v)
		}
		values[g.Out] = g.Eval(ins)
	}
	outs := make(map[string]bool, len(s.n.Outputs))
	for _, po := range s.n.Outputs {
		outs[po] = values[po]
	}
	for i := range s.n.Gates {
		g := &s.n.Gates[i]
		if g.Type == Dff {
			v, ok := values[g.Ins[0]]
			if !ok {
				return nil, fmt.Errorf("netlist %q: flip-flop %q input %q unresolved", s.n.Name, g.Name, g.Ins[0])
			}
			s.state[g.Out] = v
		}
	}
	return outs, nil
}
