package hypergraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fpgapart/internal/bitset"
)

// referenceSubcircuit is the original map-based Subcircuit, kept as the
// differential reference for the dense implementation.
func referenceSubcircuit(g *Graph, name string, specs []InstanceSpec, external func(NetID) bool) (*Graph, error) {
	if external == nil {
		external = func(NetID) bool { return false }
	}
	sub := &Graph{Name: name}
	netMap := make(map[NetID]NetID)
	driverInside := make(map[NetID]bool)
	mapNet := func(old NetID) NetID {
		if id, ok := netMap[old]; ok {
			return id
		}
		id := NetID(len(sub.Nets))
		sub.Nets = append(sub.Nets, Net{Name: g.Nets[old].Name})
		netMap[old] = id
		return id
	}

	for _, spec := range specs {
		if int(spec.Cell) < 0 || int(spec.Cell) >= len(g.Cells) {
			return nil, fmt.Errorf("subcircuit %q: invalid cell id %d", name, spec.Cell)
		}
		src := &g.Cells[spec.Cell]
		outs := spec.Outputs
		if outs == nil {
			outs = make([]int, len(src.Outputs))
			for i := range outs {
				outs[i] = i
			}
		} else {
			outs = append([]int(nil), outs...)
			sort.Ints(outs)
		}
		if len(outs) == 0 {
			return nil, fmt.Errorf("subcircuit %q: instance of %q has no active outputs", name, src.Name)
		}
		seen := make(map[int]bool, len(outs))
		for _, o := range outs {
			if o < 0 || o >= len(src.Outputs) {
				return nil, fmt.Errorf("subcircuit %q: instance of %q references output %d of %d",
					name, src.Name, o, len(src.Outputs))
			}
			if seen[o] {
				return nil, fmt.Errorf("subcircuit %q: instance of %q repeats output %d", name, src.Name, o)
			}
			seen[o] = true
		}

		activeIn := inputsFor(src, outs)
		inMap := make([]int, len(src.Inputs))
		newInputs := make([]NetID, 0, activeIn.Norm())
		for j := range src.Inputs {
			if activeIn.Get(j) {
				inMap[j] = len(newInputs)
				newInputs = append(newInputs, mapNet(src.Inputs[j]))
			} else {
				inMap[j] = -1
			}
		}
		newOutputs := make([]NetID, len(outs))
		newDep := make([]bitset.Vector, len(outs))
		for k, o := range outs {
			newOutputs[k] = mapNet(src.Outputs[o])
			driverInside[src.Outputs[o]] = true
			row := bitset.New(len(newInputs))
			for j := range src.Inputs {
				if inMap[j] >= 0 && src.Dep[o].Get(j) {
					row.Set(inMap[j])
				}
			}
			newDep[k] = row
		}
		cname := spec.Rename
		if cname == "" {
			cname = src.Name
		}
		sub.Cells = append(sub.Cells, Cell{
			Name:    cname,
			Inputs:  newInputs,
			Outputs: newOutputs,
			Dep:     newDep,
			Area:    src.Area,
			DFFs:    src.DFFs,
			Replica: src.Replica || spec.Replica,
		})
	}

	for old, id := range netMap {
		switch {
		case g.Nets[old].Ext == ExtIn:
			sub.Nets[id].Ext = ExtIn
		case g.Nets[old].Ext == ExtOut:
			if driverInside[old] {
				sub.Nets[id].Ext = ExtOut
			} else {
				sub.Nets[id].Ext = ExtIn
			}
		case external(old):
			if driverInside[old] {
				sub.Nets[id].Ext = ExtOut
			} else {
				sub.Nets[id].Ext = ExtIn
			}
		default:
			sub.Nets[id].Ext = Internal
		}
	}

	sub.RebuildConns()
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("subcircuit %q: %w", name, err)
	}
	return sub, nil
}

// randomGraph builds a valid acyclic graph of n cells with up to four
// inputs and outputs each, random dependency rows (dependency-free
// inputs included), some replica-flagged cells and, now and then, an
// unconnected input pin no output depends on.
func randomGraph(r *rand.Rand, n int) *Graph {
	b := NewBuilder("rand")
	var drivers []NetID
	for i := r.Intn(4); i >= 0; i-- {
		drivers = append(drivers, b.InputNet(""))
	}
	read := map[NetID]bool{}
	for c := 0; c < n; c++ {
		ins := make([]NetID, r.Intn(5))
		for j := range ins {
			ins[j] = drivers[r.Intn(len(drivers))]
			read[ins[j]] = true
		}
		floating := r.Intn(5) == 0
		if floating {
			ins = append(ins, NilNet)
		}
		outs := make([]NetID, 1+r.Intn(4))
		dep := make([][]int, len(outs))
		for k := range outs {
			outs[k] = b.Net("")
			dep[k] = make([]int, len(ins))
			for j := range dep[k] {
				if ins[j] != NilNet && r.Intn(3) > 0 {
					dep[k][j] = 1
				}
			}
		}
		b.AddCell(CellSpec{
			Inputs: ins, Outputs: outs, DepBits: dep,
			Area: 1 + r.Intn(3), DFFs: r.Intn(2), Replica: r.Intn(6) == 0,
		})
		drivers = append(drivers, outs...)
	}
	// Every net needs a sink: unread primary inputs feed one extra
	// cell, and unread cell outputs become primary outputs.
	var unreadIn []NetID
	for _, n := range drivers {
		if !read[n] && b.g.Nets[n].Ext == ExtIn {
			unreadIn = append(unreadIn, n)
		}
	}
	if len(unreadIn) > 0 {
		drivers = append(drivers, b.Net(""))
		b.AddCell(CellSpec{Inputs: unreadIn, Outputs: drivers[len(drivers)-1:]})
	}
	for _, n := range drivers {
		if !read[n] && b.g.Nets[n].Ext == Internal {
			b.MarkOutput(n)
		}
	}
	return b.MustBuild()
}

// randomExternal returns nil, an always-true predicate (every net a
// terminal, so most extractions validate) or a random per-net table.
func randomExternal(r *rand.Rand, g *Graph) func(NetID) bool {
	switch r.Intn(3) {
	case 0:
		return nil
	case 1:
		return func(NetID) bool { return true }
	}
	cut := make([]bool, len(g.Nets))
	for i := range cut {
		cut[i] = r.Intn(2) == 0
	}
	return func(n NetID) bool { return cut[n] }
}

// randomSpecs picks a random subset of cells in random order, each as a
// whole instance or split into two copies over disjoint output subsets
// listed unsorted, the second a renamed replica.
func randomSpecs(r *rand.Rand, g *Graph) []InstanceSpec {
	var specs []InstanceSpec
	for _, ci := range r.Perm(len(g.Cells)) {
		c := &g.Cells[ci]
		switch r.Intn(3) {
		case 0:
			continue
		case 1:
			specs = append(specs, InstanceSpec{Cell: CellID(ci)})
			continue
		}
		var keep, carry []int
		for _, o := range r.Perm(len(c.Outputs)) {
			if r.Intn(2) == 0 {
				keep = append(keep, o)
			} else {
				carry = append(carry, o)
			}
		}
		if len(keep) > 0 {
			specs = append(specs, InstanceSpec{Cell: CellID(ci), Outputs: keep})
		}
		if len(carry) > 0 {
			specs = append(specs, InstanceSpec{Cell: CellID(ci), Outputs: carry, Rename: c.Name + "$r", Replica: true})
		}
	}
	return specs
}

// decodeSpecs turns arbitrary bytes into instance specs over g, three
// bytes per spec: the cell (one past either end is invalid), a flag
// byte and an output bitmap (bits 0-5 select outputs 0-5, bit 6 output
// -1, bit 7 a repeat of the first listed output).
func decodeSpecs(g *Graph, data []byte) []InstanceSpec {
	var specs []InstanceSpec
	for ; len(data) >= 3; data = data[3:] {
		spec := InstanceSpec{Cell: CellID(int(data[0])%(len(g.Cells)+2) - 1)}
		flags, bitmap := data[1], data[2]
		if flags&1 != 0 {
			spec.Outputs = []int{}
			for i := 0; i < 6; i++ {
				if bitmap&(1<<i) != 0 {
					spec.Outputs = append(spec.Outputs, i)
				}
			}
			if bitmap&(1<<6) != 0 {
				spec.Outputs = append(spec.Outputs, -1)
			}
			if bitmap&(1<<7) != 0 && len(spec.Outputs) > 0 {
				spec.Outputs = append(spec.Outputs, spec.Outputs[0])
			}
			if flags&2 != 0 {
				sort.Sort(sort.Reverse(sort.IntSlice(spec.Outputs)))
			}
		}
		if flags&4 != 0 {
			spec.Rename = fmt.Sprintf("r%d", len(specs))
		}
		spec.Replica = flags&8 != 0
		specs = append(specs, spec)
	}
	return specs
}

// checkSubcircuit compares Subcircuit, and SubcircuitIn through a,
// against the reference: the same error, or the same cells, nets and
// conns.
func checkSubcircuit(t *testing.T, a *Arena, g *Graph, specs []InstanceSpec, external func(NetID) bool) bool {
	t.Helper()
	want, werr := referenceSubcircuit(g, "sub", specs, external)
	for _, form := range []string{"fresh", "arena"} {
		var got *Graph
		var gerr error
		if form == "fresh" {
			got, gerr = g.Subcircuit("sub", specs, external)
		} else {
			got, gerr = g.SubcircuitIn(a, "sub", specs, external)
		}
		if !reflect.DeepEqual(gerr, werr) {
			t.Fatalf("%s, specs %+v: error %v, reference %v", form, specs, gerr, werr)
		}
		if werr != nil {
			continue
		}
		// The reference leaves an empty extraction's slices nil.
		if got.Name != want.Name ||
			len(got.Cells)+len(want.Cells) > 0 && !reflect.DeepEqual(got.Cells, want.Cells) ||
			len(got.Nets)+len(want.Nets) > 0 && !reflect.DeepEqual(got.Nets, want.Nets) {
			t.Fatalf("%s, specs %+v:\n got  %+v\n want %+v", form, specs, got, want)
		}
	}
	return werr == nil
}

// wholeSpecs selects every cell of g whole: the largest extraction.
func wholeSpecs(g *Graph) []InstanceSpec {
	specs := make([]InstanceSpec, len(g.Cells))
	for ci := range specs {
		specs[ci].Cell = CellID(ci)
	}
	return specs
}

func TestSubcircuitMatchesReference(t *testing.T) {
	built := 0
	const seeds = 400
	// One arena serves every extraction, so each build reuses storage
	// grown by larger or smaller graphs before it.
	var a Arena
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 1+r.Intn(40))
		ext := randomExternal(r, g)
		checkSubcircuit(t, &a, g, wholeSpecs(g), ext)
		if checkSubcircuit(t, &a, g, randomSpecs(r, g), ext) {
			built++
		}
		bad := make([]byte, 3*r.Intn(8))
		r.Read(bad)
		checkSubcircuit(t, &a, g, decodeSpecs(g, bad), ext)
		checkSubcircuit(t, &a, g, wholeSpecs(g), ext)
	}
	// Guard against a generator that only ever exercises the error
	// paths.
	if built < seeds/4 {
		t.Fatalf("only %d of %d random extractions validated", built, seeds)
	}
}

func FuzzSubcircuit(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 0, 0, 2, 1, 0x05, 1, 5, 0x0a})
	f.Add(int64(3), []byte{0, 0, 0, 3, 1, 0x81, 4, 3, 0x43})
	f.Add(int64(4), []byte{2, 1, 0x01, 2, 13, 0x02, 255, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 1+r.Intn(12))
		ext := randomExternal(r, g)
		// Large, then small, then large through one arena.
		var a Arena
		checkSubcircuit(t, &a, g, wholeSpecs(g), ext)
		checkSubcircuit(t, &a, g, decodeSpecs(g, data), ext)
		checkSubcircuit(t, &a, g, wholeSpecs(g), ext)
	})
}

// inputsFor returns the union of c's adjacency vectors over the given
// output indices: the input pins a copy carrying exactly those outputs
// must keep connected.
func inputsFor(c *Cell, outputs []int) bitset.Vector {
	v := bitset.New(len(c.Inputs))
	for _, o := range outputs {
		for j := range c.Inputs {
			if c.Dep[o].Get(j) {
				v.Set(j)
			}
		}
	}
	return v
}
