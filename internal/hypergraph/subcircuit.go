package hypergraph

import (
	"fmt"
	"slices"

	"fpgapart/internal/bitset"
)

// InstanceSpec selects one cell copy for Subcircuit extraction. With
// functional replication a cell may appear in two subcircuits, each
// copy carrying a disjoint subset of the outputs; Outputs lists the
// active output pin indices of this copy (nil means all outputs).
type InstanceSpec struct {
	Cell    CellID
	Outputs []int
	Rename  string // optional name override (e.g. "u7$r" for a replica)
	// Replica marks this instance as a functional-replication copy; the
	// materialized cell carries the flag (in addition to inheriting the
	// source cell's own flag from enclosing extractions).
	Replica bool
}

// Arena is storage that Subcircuit builds into, held by a caller that
// extracts one subcircuit after another. A graph built in an arena
// aliases its buffers until the arena's next build, so the caller must
// be done with that graph first; the survey and validation scratch
// are free again as soon as the build returns. A build allocates only
// where a buffer is short of the new graph's size. The zero value is
// ready for use.
type Arena struct {
	validateScratch
	// Survey scratch: parent net references and active output lists.
	ref  []netRef
	outs []int
	// Graph storage: cells, nets, every cell's input and output pins,
	// adjacency rows and their words, and the nets' connection lists.
	cells []Cell
	nets  []Net
	pins  []NetID
	dep   []bitset.Vector
	words []uint64
	conns []Conn
}

// Detach gives the graph last built in a its storage for good: the
// next build allocates new graph storage instead of overwriting it.
// The survey and validation scratch stay for reuse, so a caller that
// keeps every graph it builds still extracts without survey
// allocations.
func (a *Arena) Detach() {
	a.cells, a.nets, a.pins, a.dep, a.words, a.conns = nil, nil, nil, nil, nil, nil
}

// netRef holds the subcircuit id of a parent net plus one (0: not in
// the subcircuit) and whether a member instance drives it.
type netRef struct {
	id     NetID
	driven bool
}

// grow returns buf resized to n elements, reallocating when its
// capacity is short. The result is never nil, so an empty pin list
// stays distinguishable from an absent one. Elements kept from earlier
// use are not cleared.
func grow[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Subcircuit materializes the hypergraph induced by the given cell
// instances. Pin pruning follows the functional-replication rule: a
// copy carrying output set S keeps exactly the input pins adjacent to
// S (Section II). Nets are renumbered in order of first encounter (per
// instance: active inputs, then outputs in ascending pin order); a net
// present in the subcircuit becomes a terminal when it was already
// external in g or when external(net) reports true (i.e. the net is in
// the cut set of the enclosing partition). Terminal direction is ExtOut
// when the net's driver lives inside the subcircuit and ExtIn otherwise.
//
// The extraction runs on dense arrays indexed by g's nets, and every
// cell's pin lists and adjacency rows are carved from one allocation
// each, so the allocation count does not grow with the instance count.
func (g *Graph) Subcircuit(name string, specs []InstanceSpec, external func(NetID) bool) (*Graph, error) {
	return g.SubcircuitIn(&Arena{}, name, specs, external)
}

// SubcircuitIn is Subcircuit building into a: the returned graph's
// cells, nets, pins, adjacency rows and connection lists live in a's
// buffers, which a warm arena reuses without allocating. Only the
// Graph header is new, so a graph built in a never shares its identity
// with an earlier one.
func (g *Graph) SubcircuitIn(a *Arena, name string, specs []InstanceSpec, external func(NetID) bool) (*Graph, error) {
	// Survey: each instance's active outputs, sorted, in one buffer.
	nOut := 0
	for _, spec := range specs {
		if int(spec.Cell) >= 0 && int(spec.Cell) < len(g.Cells) {
			nOut += numOutputs(&g.Cells[spec.Cell], spec)
		}
	}
	a.outs = grow(a.outs, nOut)[:0]
	outs := a.outs
	a.ref = grow(a.ref, len(g.Nets))
	ref := a.ref
	clear(ref)
	numNets, nIn, nWords := 0, 0, 0
	mapNet := func(old NetID) *netRef {
		r := &ref[old]
		if r.id == 0 {
			numNets++
			r.id = NetID(numNets)
		}
		return r
	}
	for _, spec := range specs {
		if int(spec.Cell) < 0 || int(spec.Cell) >= len(g.Cells) {
			return nil, fmt.Errorf("subcircuit %q: invalid cell id %d", name, spec.Cell)
		}
		src := &g.Cells[spec.Cell]
		lo := len(outs)
		if spec.Outputs == nil {
			for i := range src.Outputs {
				outs = append(outs, i)
			}
		} else {
			outs = append(outs, spec.Outputs...)
			slices.Sort(outs[lo:])
		}
		act := outs[lo:]
		if len(act) == 0 {
			return nil, fmt.Errorf("subcircuit %q: instance of %q has no active outputs", name, src.Name)
		}
		for k, o := range act {
			if o < 0 || o >= len(src.Outputs) {
				return nil, fmt.Errorf("subcircuit %q: instance of %q references output %d of %d",
					name, src.Name, o, len(src.Outputs))
			}
			// Sorted, so a repeat sits next to its first occurrence.
			if k > 0 && o == act[k-1] {
				return nil, fmt.Errorf("subcircuit %q: instance of %q repeats output %d", name, src.Name, o)
			}
		}
		k := 0
		for j, n := range src.Inputs {
			if adjacent(src, act, j) {
				mapNet(n)
				k++
			}
		}
		for _, o := range act {
			mapNet(src.Outputs[o]).driven = true
		}
		nIn += k
		nWords += len(act) * bitset.Words(k)
	}

	a.cells = grow(a.cells, len(specs))
	a.nets = grow(a.nets, numNets)
	a.pins = grow(a.pins, nIn+len(outs))
	a.dep = grow(a.dep, len(outs))
	a.words = grow(a.words, nWords)
	clear(a.words)
	sub := &Graph{Name: name, Cells: a.cells, Nets: a.nets}
	inBuf, outBuf := a.pins[:nIn], a.pins[nIn:]
	depBuf, words := a.dep, a.words
	off := 0
	for ci, spec := range specs {
		src := &g.Cells[spec.Cell]
		m := numOutputs(src, spec)
		act := outs[off : off+m]
		k := 0
		for j := range src.Inputs {
			if adjacent(src, act, j) {
				k++
			}
		}
		inputs := inBuf[:k:k]
		inBuf = inBuf[k:]
		dep := depBuf[off : off+m : off+m]
		for r := range dep {
			dep[r], words = bitset.Carve(words, k)
		}
		k = 0
		for j, n := range src.Inputs {
			if !adjacent(src, act, j) {
				continue
			}
			inputs[k] = ref[n].id - 1
			for r, o := range act {
				if src.Dep[o].Get(j) {
					dep[r].Set(k)
				}
			}
			k++
		}
		outputs := outBuf[off : off+m : off+m]
		for r, o := range act {
			outputs[r] = ref[src.Outputs[o]].id - 1
		}
		off += m
		cname := spec.Rename
		if cname == "" {
			cname = src.Name
		}
		sub.Cells[ci] = Cell{
			Name:    cname,
			Inputs:  inputs,
			Outputs: outputs,
			Dep:     dep,
			Area:    src.Area,
			DFFs:    src.DFFs,
			Replica: src.Replica || spec.Replica,
		}
	}

	for old, r := range ref {
		if r.id == 0 {
			continue
		}
		net := &sub.Nets[r.id-1]
		net.Name = g.Nets[old].Name
		switch ext := g.Nets[old].Ext; {
		case ext == ExtIn:
			net.Ext = ExtIn
		case ext == ExtOut || external != nil && external(NetID(old)):
			if r.driven {
				net.Ext = ExtOut
			} else {
				net.Ext = ExtIn
			}
		default:
			net.Ext = Internal
		}
	}

	a.conns = sub.RebuildConnsInto(a.conns)
	if err := sub.validate(&a.validateScratch); err != nil {
		return nil, fmt.Errorf("subcircuit %q: %w", name, err)
	}
	return sub, nil
}

// numOutputs is the number of output entries a spec lists for its
// cell: those of spec.Outputs, or every output of c when nil.
func numOutputs(c *Cell, spec InstanceSpec) int {
	if spec.Outputs == nil {
		return len(c.Outputs)
	}
	return len(spec.Outputs)
}

// adjacent reports whether input j of c feeds any of the outputs outs.
func adjacent(c *Cell, outs []int, j int) bool {
	for _, o := range outs {
		if c.Dep[o].Get(j) {
			return true
		}
	}
	return false
}
