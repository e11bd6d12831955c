package hypergraph

import (
	"fmt"

	"fpgapart/internal/bitset"
)

// CellSpec describes one cell for Builder.AddCell. Dep rows may be
// given as explicit adjacency vectors (Dep) or as 0/1 matrices
// (DepBits); leaving both nil means every output depends on every
// input (the conservative traditional-replication assumption).
type CellSpec struct {
	Name    string
	Inputs  []NetID
	Outputs []NetID
	Dep     []bitset.Vector
	DepBits [][]int
	Area    int // defaults to 1
	DFFs    int
	Replica bool // functional-replication copy (see Cell.Replica)
}

// Builder incrementally assembles a Graph, then verifies it in Build.
type Builder struct {
	g    *Graph
	byID map[string]NetID
	err  error
}

// NewBuilder creates an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name, Cells: []Cell{}, Nets: []Net{}}, byID: make(map[string]NetID)}
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("builder %q: %s", b.g.Name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) addNet(name string, ext ExtKind) NetID {
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.g.Nets))
	}
	if _, dup := b.byID[name]; dup {
		b.fail("duplicate net name %q", name)
		return NilNet
	}
	id := NetID(len(b.g.Nets))
	b.g.Nets = append(b.g.Nets, Net{Name: name, Ext: ext})
	b.byID[name] = id
	return id
}

// Net declares an internal net and returns its id.
func (b *Builder) Net(name string) NetID { return b.addNet(name, Internal) }

// InputNet declares a primary-input net (driven by a terminal).
func (b *Builder) InputNet(name string) NetID { return b.addNet(name, ExtIn) }

// OutputNet declares a primary-output net (a cell must drive it).
func (b *Builder) OutputNet(name string) NetID { return b.addNet(name, ExtOut) }

// MarkOutput upgrades an existing internal net to a primary output.
func (b *Builder) MarkOutput(id NetID) {
	if int(id) < 0 || int(id) >= len(b.g.Nets) {
		b.fail("MarkOutput: invalid net %d", id)
		return
	}
	if b.g.Nets[id].Ext == ExtIn {
		b.fail("MarkOutput: net %q is a primary input", b.g.Nets[id].Name)
		return
	}
	b.g.Nets[id].Ext = ExtOut
}

// NetByName returns the id of a previously declared net.
func (b *Builder) NetByName(name string) (NetID, bool) {
	id, ok := b.byID[name]
	return id, ok
}

// AddCell appends a cell and returns its id.
func (b *Builder) AddCell(spec CellSpec) CellID {
	id := CellID(len(b.g.Cells))
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("c%d", id)
	}
	area := spec.Area
	if area == 0 {
		area = 1
	}
	dep := spec.Dep
	switch {
	case dep == nil && spec.DepBits != nil:
		if len(spec.DepBits) != len(spec.Outputs) {
			b.fail("cell %q: DepBits has %d rows, want %d", spec.Name, len(spec.DepBits), len(spec.Outputs))
			return id
		}
		dep = make([]bitset.Vector, len(spec.DepBits))
		for i, row := range spec.DepBits {
			if len(row) != len(spec.Inputs) {
				b.fail("cell %q: DepBits row %d has %d columns, want %d", spec.Name, i, len(row), len(spec.Inputs))
				return id
			}
			dep[i] = bitset.FromBits(row...)
		}
	case dep == nil:
		dep = bitset.FullRows(len(spec.Outputs), len(spec.Inputs))
	}
	// One allocation holds both pin lists.
	pins := make([]NetID, len(spec.Inputs)+len(spec.Outputs))
	nIn := copy(pins, spec.Inputs)
	copy(pins[nIn:], spec.Outputs)
	b.g.Cells = append(b.g.Cells, Cell{
		Name:    spec.Name,
		Inputs:  pins[:nIn:nIn],
		Outputs: pins[nIn:],
		Dep:     dep,
		Area:    area,
		DFFs:    spec.DFFs,
		Replica: spec.Replica,
	})
	return id
}

// Build finalizes the graph: connection lists are rebuilt and the
// structural invariants validated.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.g.RebuildConns()
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
