// Package hypergraph models a technology-mapped circuit as the
// hypergraph H = ({X;Y}, E) of Kužnar et al. (DAC'94, Section II):
// interior nodes X are mapped cells (e.g. Xilinx XC3000 CLBs) with up
// to m outputs and n inputs plus a dependency relation between them,
// terminal nodes Y are primary inputs/outputs (IOBs), and E is the set
// of nets. Cells carry the per-output adjacency vectors A_Xi from which
// the replication potential ψ (Eq. 4) is computed.
package hypergraph

import (
	"fmt"
	"slices"

	"fpgapart/internal/bitset"
)

// CellID identifies a cell (interior node) within a Graph.
type CellID int32

// NetID identifies a net within a Graph.
type NetID int32

// NilNet marks an unconnected pin slot.
const NilNet NetID = -1

// ExtKind classifies how a net touches the terminal node set Y.
type ExtKind uint8

const (
	// Internal nets connect cells only.
	Internal ExtKind = iota
	// ExtIn nets are driven by a primary input terminal.
	ExtIn
	// ExtOut nets drive a primary output terminal (driver is a cell).
	ExtOut
)

func (k ExtKind) String() string {
	switch k {
	case Internal:
		return "internal"
	case ExtIn:
		return "input"
	case ExtOut:
		return "output"
	}
	return fmt.Sprintf("ExtKind(%d)", uint8(k))
}

// Conn is one cell pin connection on a net.
type Conn struct {
	Cell CellID
	Out  bool // true: cell output pin (net driver); false: cell input pin
	Pin  int  // index into the cell's Outputs or Inputs
}

// Cell is an interior node: a mapped logic cell with named I/O
// dependency. Dep[i] is the adjacency vector A_Xi of output i over the
// cell inputs (Dep[i].Get(j) reports that output i is a function of
// input j).
type Cell struct {
	Name    string
	Inputs  []NetID
	Outputs []NetID
	Dep     []bitset.Vector
	Area    int // elementary circuit units consumed (CLBs); ≥ 1
	DFFs    int // number of D flip-flops packed into the cell
	// Replica marks a copy created by functional replication relative
	// to the original source circuit. The flag is set structurally at
	// subcircuit materialization (InstanceSpec.Replica) and survives
	// nested extraction, so counting replicas never requires parsing
	// the "$r" name suffixes (which exist only to keep names unique).
	Replica bool
}

// NumPins returns the number of cell pins (inputs + outputs).
func (c *Cell) NumPins() int { return len(c.Inputs) + len(c.Outputs) }

// ReplicationPotential evaluates ψ per Eq. (4): the number of inputs
// that are adjacent to exactly one output. Single-output cells have
// ψ = 0 by definition.
func (c *Cell) ReplicationPotential() int {
	if len(c.Outputs) <= 1 {
		return 0
	}
	return bitset.ExclusiveNorm(c.Dep)
}

// InputsFor returns the union of adjacency vectors over the given
// output indices: the set of input pins a copy carrying exactly those
// outputs must keep connected. A nil slice selects all outputs.
func (c *Cell) InputsFor(outputs []int) bitset.Vector {
	v := bitset.New(len(c.Inputs))
	if outputs == nil {
		for i := range c.Outputs {
			v = v.Or(c.Dep[i])
		}
		return v
	}
	for _, i := range outputs {
		v = v.Or(c.Dep[i])
	}
	return v
}

// Net is a hyperedge. Conns lists every cell pin on the net; Ext marks
// nets that also connect a terminal node (primary I/O).
type Net struct {
	Name  string
	Conns []Conn
	Ext   ExtKind
}

// Graph is the circuit hypergraph.
type Graph struct {
	Name  string
	Cells []Cell
	Nets  []Net
}

// NumCells returns |X|.
func (g *Graph) NumCells() int { return len(g.Cells) }

// NumNets returns |E|.
func (g *Graph) NumNets() int { return len(g.Nets) }

// NumTerminals returns |Y|, the number of external nets (each external
// net consumes one IOB on whichever device hosts it).
func (g *Graph) NumTerminals() int {
	t := 0
	for i := range g.Nets {
		if g.Nets[i].Ext != Internal {
			t++
		}
	}
	return t
}

// TotalArea returns the sum of cell areas (CLB count for mapped cells).
func (g *Graph) TotalArea() int {
	a := 0
	for i := range g.Cells {
		a += g.Cells[i].Area
	}
	return a
}

// NumDFF returns the number of D flip-flops in the circuit.
func (g *Graph) NumDFF() int {
	d := 0
	for i := range g.Cells {
		d += g.Cells[i].DFFs
	}
	return d
}

// NumPins returns the total pin count: cell pins plus one terminal pin
// per external net.
func (g *Graph) NumPins() int {
	p := 0
	for i := range g.Cells {
		p += g.Cells[i].NumPins()
	}
	for i := range g.Nets {
		if g.Nets[i].Ext != Internal {
			p++
		}
	}
	return p
}

// Cell returns the cell with the given id.
func (g *Graph) Cell(id CellID) *Cell { return &g.Cells[id] }

// Net returns the net with the given id.
func (g *Graph) Net(id NetID) *Net { return &g.Nets[id] }

// CellNets returns the distinct nets incident to the cell, in pin
// order (outputs first), without duplicates.
func (g *Graph) CellNets(id CellID) []NetID {
	c := &g.Cells[id]
	out := make([]NetID, 0, c.NumPins())
	add := func(n NetID) {
		if n != NilNet && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	for _, n := range c.Outputs {
		add(n)
	}
	for _, n := range c.Inputs {
		add(n)
	}
	return out
}

// Validate checks structural invariants:
//   - every pin references an existing net (or NilNet for inputs);
//   - Dep has one adjacency vector per output, each of input width;
//   - every output drives a net, and every net has exactly one driver
//     (a cell output for Internal/ExtOut nets, the implicit terminal
//     for ExtIn nets);
//   - Conns mirrors the pin fields exactly;
//   - every net has at least one sink (a cell input or an ExtOut
//     terminal);
//   - areas are positive.
func (g *Graph) Validate() error { return g.validate(&validateScratch{}) }

// validateScratch is Validate's working storage: per-net pin counts
// and the set of cell names seen.
type validateScratch struct {
	info  []driveInfo
	names map[string]bool
}

type driveInfo struct {
	drivers int
	sinks   int
}

// validate is Validate drawing its working storage from vs, which
// keeps it for the next call.
func (g *Graph) validate(vs *validateScratch) error {
	vs.info = grow(vs.info, len(g.Nets))
	info := vs.info
	clear(info)
	if vs.names == nil {
		vs.names = make(map[string]bool, len(g.Cells))
	} else {
		clear(vs.names)
	}
	cellNames := vs.names
	for ci := range g.Cells {
		c := &g.Cells[ci]
		if c.Area < 1 {
			return fmt.Errorf("hypergraph %q: cell %q has non-positive area %d", g.Name, c.Name, c.Area)
		}
		if len(c.Outputs) == 0 {
			return fmt.Errorf("hypergraph %q: cell %q has no outputs", g.Name, c.Name)
		}
		if cellNames[c.Name] {
			return fmt.Errorf("hypergraph %q: duplicate cell name %q", g.Name, c.Name)
		}
		cellNames[c.Name] = true
		if len(c.Dep) != len(c.Outputs) {
			return fmt.Errorf("hypergraph %q: cell %q has %d outputs but %d adjacency vectors",
				g.Name, c.Name, len(c.Outputs), len(c.Dep))
		}
		for i, d := range c.Dep {
			if d.Len() != len(c.Inputs) {
				return fmt.Errorf("hypergraph %q: cell %q output %d adjacency vector width %d, want %d",
					g.Name, c.Name, i, d.Len(), len(c.Inputs))
			}
		}
		for pi, n := range c.Outputs {
			if n == NilNet {
				return fmt.Errorf("hypergraph %q: cell %q output %d is unconnected", g.Name, c.Name, pi)
			}
			if int(n) < 0 || int(n) >= len(g.Nets) {
				return fmt.Errorf("hypergraph %q: cell %q output %d references invalid net %d", g.Name, c.Name, pi, n)
			}
			info[n].drivers++
		}
		for pi, n := range c.Inputs {
			if n == NilNet {
				continue
			}
			if int(n) < 0 || int(n) >= len(g.Nets) {
				return fmt.Errorf("hypergraph %q: cell %q input %d references invalid net %d", g.Name, c.Name, pi, n)
			}
			info[n].sinks++
		}
	}
	for ni := range g.Nets {
		net := &g.Nets[ni]
		d := info[ni]
		switch net.Ext {
		case ExtIn:
			if d.drivers != 0 {
				return fmt.Errorf("hypergraph %q: primary-input net %q also driven by %d cell output(s)",
					g.Name, net.Name, d.drivers)
			}
		default:
			if d.drivers != 1 {
				return fmt.Errorf("hypergraph %q: net %q has %d drivers, want 1", g.Name, net.Name, d.drivers)
			}
		}
		sinks := d.sinks
		if net.Ext == ExtOut {
			sinks++
		}
		if sinks == 0 {
			return fmt.Errorf("hypergraph %q: net %q has no sinks", g.Name, net.Name)
		}
		// Conns must mirror pins.
		for _, cn := range net.Conns {
			if int(cn.Cell) < 0 || int(cn.Cell) >= len(g.Cells) {
				return fmt.Errorf("hypergraph %q: net %q conn references invalid cell %d", g.Name, net.Name, cn.Cell)
			}
			c := &g.Cells[cn.Cell]
			if cn.Out {
				if cn.Pin < 0 || cn.Pin >= len(c.Outputs) || c.Outputs[cn.Pin] != NetID(ni) {
					return fmt.Errorf("hypergraph %q: net %q conn (%s out %d) does not match cell pins",
						g.Name, net.Name, c.Name, cn.Pin)
				}
			} else {
				if cn.Pin < 0 || cn.Pin >= len(c.Inputs) || c.Inputs[cn.Pin] != NetID(ni) {
					return fmt.Errorf("hypergraph %q: net %q conn (%s in %d) does not match cell pins",
						g.Name, net.Name, c.Name, cn.Pin)
				}
			}
		}
	}
	// Reverse direction: every pin appears in its net's conn list. The
	// conns all match distinct pins, so the counts agree exactly when
	// none is missing.
	for ni := range g.Nets {
		if want := info[ni].drivers + info[ni].sinks; len(g.Nets[ni].Conns) != want {
			return fmt.Errorf("hypergraph %q: net %q has %d conns but %d referencing pins",
				g.Name, g.Nets[ni].Name, len(g.Nets[ni].Conns), want)
		}
	}
	return nil
}

// RebuildConns recomputes every net's Conns slice from the cell pin
// fields. Builders that assemble Cells/Nets directly call this before
// Validate. Every net's slice is carved, capacity-capped, from one
// backing array.
func (g *Graph) RebuildConns() { g.RebuildConnsInto(nil) }

// RebuildConnsInto is RebuildConns carving the lists from buf, which
// it returns for reuse: buf is replaced by one of exactly the pin
// count when too small, so a caller rebuilding graphs no larger than
// earlier ones allocates nothing.
func (g *Graph) RebuildConnsInto(buf []Conn) []Conn {
	total := 0
	for ci := range g.Cells {
		c := &g.Cells[ci]
		total += len(c.Outputs)
		for _, n := range c.Inputs {
			if n != NilNet {
				total++
			}
		}
	}
	if cap(buf) < total {
		buf = make([]Conn, total)
	}
	buf = buf[:total]
	// Count each net's pins in the capacity of an empty slice of buf (no
	// count exceeds total), then carve the lists in net order.
	for ni := range g.Nets {
		g.Nets[ni].Conns = buf[:0:0]
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		for _, n := range c.Outputs {
			g.Nets[n].Conns = buf[: 0 : cap(g.Nets[n].Conns)+1]
		}
		for _, n := range c.Inputs {
			if n != NilNet {
				g.Nets[n].Conns = buf[: 0 : cap(g.Nets[n].Conns)+1]
			}
		}
	}
	off := 0
	for ni := range g.Nets {
		k := cap(g.Nets[ni].Conns)
		g.Nets[ni].Conns = buf[off : off : off+k]
		off += k
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		for pi, n := range c.Outputs {
			g.Nets[n].Conns = append(g.Nets[n].Conns, Conn{Cell: CellID(ci), Out: true, Pin: pi})
		}
		for pi, n := range c.Inputs {
			if n != NilNet {
				g.Nets[n].Conns = append(g.Nets[n].Conns, Conn{Cell: CellID(ci), Out: false, Pin: pi})
			}
		}
	}
	return buf
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{Name: g.Name, Cells: make([]Cell, len(g.Cells)), Nets: make([]Net, len(g.Nets))}
	for i := range g.Cells {
		c := g.Cells[i]
		c.Inputs = append([]NetID(nil), c.Inputs...)
		c.Outputs = append([]NetID(nil), c.Outputs...)
		dep := make([]bitset.Vector, len(c.Dep))
		for j := range c.Dep {
			dep[j] = c.Dep[j].Clone()
		}
		c.Dep = dep
		out.Cells[i] = c
	}
	for i := range g.Nets {
		n := g.Nets[i]
		n.Conns = append([]Conn(nil), n.Conns...)
		out.Nets[i] = n
	}
	return out
}

// PotentialDistribution is the cell distribution d_X(ψ) of Eq. (5),
// with single-output cells reported separately from multi-output cells
// of ψ = 0 as in Fig. 3 ("0" vs "0*").
type PotentialDistribution struct {
	SingleOutput int         // cells with one output (ψ = 0 by Eq. 4)
	MultiZero    int         // multi-output cells with ψ = 0 (the "0*" bin)
	ByPsi        map[int]int // multi-output cells keyed by ψ ≥ 1
	Total        int
}

// Distribution computes d_X(ψ) over all cells of the graph.
func (g *Graph) Distribution() PotentialDistribution {
	d := PotentialDistribution{ByPsi: make(map[int]int), Total: len(g.Cells)}
	for i := range g.Cells {
		c := &g.Cells[i]
		if len(c.Outputs) <= 1 {
			d.SingleOutput++
			continue
		}
		psi := c.ReplicationPotential()
		if psi == 0 {
			d.MultiZero++
		} else {
			d.ByPsi[psi]++
		}
	}
	return d
}

// ReplicableCells returns the number of cells eligible for functional
// replication at threshold T per Eq. (6): multi-output cells with
// ψ ≥ T (T = 0 admits multi-output cells with ψ = 0, per the Table IV
// note; single-output cells are never functionally replicable).
func (g *Graph) ReplicableCells(t int) int {
	n := 0
	for i := range g.Cells {
		c := &g.Cells[i]
		if len(c.Outputs) > 1 && c.ReplicationPotential() >= t {
			n++
		}
	}
	return n
}

// Components returns the number of connected components of the cell
// graph (cells joined by shared nets). Partitionable circuits are
// usually one component; generators and subcircuit extraction can
// produce more.
func (g *Graph) Components() int {
	if len(g.Cells) == 0 {
		return 0
	}
	visited := make([]bool, len(g.Cells))
	var stack []CellID
	comps := 0
	for start := range g.Cells {
		if visited[start] {
			continue
		}
		comps++
		visited[start] = true
		stack = append(stack[:0], CellID(start))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, n := range g.CellNets(c) {
				for _, cn := range g.Nets[n].Conns {
					if !visited[cn.Cell] {
						visited[cn.Cell] = true
						stack = append(stack, cn.Cell)
					}
				}
			}
		}
	}
	return comps
}
