package techmap

import (
	"fmt"
	"sort"
)

// Simulator evaluates a mapped circuit cycle by cycle, mirroring
// netlist.Simulator so mapping can be verified functionally.
type Simulator struct {
	m     *Mapped
	order []int // LUT evaluation order (indices into flat lut list)
	luts  []*LUT
	state map[string]bool // registered-output net -> value
}

// NewSimulator prepares evaluation order over the mapped LUTs.
func NewSimulator(m *Mapped) (*Simulator, error) {
	var luts []*LUT
	for ci := range m.CLBs {
		for li := range m.CLBs[ci].LUTs {
			luts = append(luts, &m.CLBs[ci].LUTs[li])
		}
	}
	byOut := make(map[string]int, len(luts))
	for i, l := range luts {
		if _, dup := byOut[l.Out]; dup {
			return nil, fmt.Errorf("techmap: net %q driven by two LUTs", l.Out)
		}
		byOut[l.Out] = i
	}
	// Topological order over combinational LUTs.
	color := make([]uint8, len(luts))
	order := make([]int, 0, len(luts))
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("techmap: combinational loop through LUT %q", luts[i].Out)
		}
		color[i] = 1
		if !luts[i].Reg {
			for _, s := range luts[i].Support {
				if di, ok := byOut[s]; ok && !luts[di].Reg {
					if err := visit(di); err != nil {
						return err
					}
				}
			}
		}
		color[i] = 2
		order = append(order, i)
		return nil
	}
	idxs := make([]int, len(luts))
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(a, b int) bool { return luts[idxs[a]].Out < luts[idxs[b]].Out })
	for _, i := range idxs {
		if luts[i].Reg {
			color[i] = 2
			continue
		}
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return &Simulator{m: m, order: order, luts: luts, state: make(map[string]bool)}, nil
}

// Step evaluates one clock cycle and returns the primary outputs.
func (s *Simulator) Step(inputs map[string]bool) (map[string]bool, error) {
	values := make(map[string]bool, len(s.luts)+len(s.m.Inputs))
	for _, pi := range s.m.Inputs {
		values[pi] = inputs[pi]
	}
	for _, l := range s.luts {
		if l.Reg {
			values[l.Out] = s.state[l.Out]
		}
	}
	evalLUT := func(l *LUT) (bool, error) {
		in := make([]bool, len(l.Support))
		for i, sn := range l.Support {
			v, ok := values[sn]
			if !ok {
				return false, fmt.Errorf("techmap: net %q read before defined", sn)
			}
			in[i] = v
		}
		return l.Eval(in), nil
	}
	for _, i := range s.order {
		l := s.luts[i]
		if l.Reg {
			continue
		}
		v, err := evalLUT(l)
		if err != nil {
			return nil, err
		}
		values[l.Out] = v
	}
	outs := make(map[string]bool, len(s.m.Outputs))
	for _, po := range s.m.Outputs {
		v, ok := values[po]
		if !ok {
			return nil, fmt.Errorf("techmap: primary output %q unresolved", po)
		}
		outs[po] = v
	}
	for _, l := range s.luts {
		if !l.Reg {
			continue
		}
		v, err := evalLUT(l)
		if err != nil {
			return nil, err
		}
		s.state[l.Out] = v
	}
	return outs, nil
}
