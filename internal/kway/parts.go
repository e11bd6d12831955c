package kway

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/topology"
	"fpgapart/internal/verify"
)

// cellSpec is one cell copy of a part: a cell of the source circuit,
// the outputs of it the copy drives, and the number of carves in which
// the copy, or the copy it descends from, was the replica. A copy with
// one is flagged hypergraph.Cell.Replica and named after its cell plus
// "$r" suffixes (see replicaStride).
type cellSpec struct {
	cell hypergraph.CellID
	outs uint32
	reps int32
}

// partName is the circuit name a carve-by-carve build gives the part:
// one ".1" per remainder it descends from, then ".0" for a carved
// block.
func partName(g *hypergraph.Graph, depth int, carved bool) string {
	name := g.Name + strings.Repeat(".1", depth)
	if carved {
		name += ".0"
	}
	return name
}

// blockCells appends to dst the copies sc.st holds in block b: a
// replicated cell's copy outside its home block is a replica.
func (sc *carveScratch) blockCells(dst []cellSpec, b replication.Block) []cellSpec {
	st := &sc.st
	for ci := range st.NumCells() {
		c := hypergraph.CellID(ci)
		own := st.OutputsIn(c, b)
		if own == 0 {
			continue
		}
		spec := cellSpec{cell: st.Source(c), outs: st.SourceOutputs(c, own), reps: sc.reps[c]}
		if st.IsReplicated(c) && st.Home(c) != b {
			spec.reps++
		}
		dst = append(dst, spec)
	}
	return dst
}

// viewCells appends to dst every cell of the remainder sc.st holds,
// whole.
func (sc *carveScratch) viewCells(dst []cellSpec) []cellSpec {
	st := &sc.st
	for ci := range st.NumCells() {
		c := hypergraph.CellID(ci)
		dst = append(dst, cellSpec{cell: st.Source(c), outs: st.SourceOutputs(c, st.AllOutputs(c)), reps: sc.reps[c]})
	}
	return dst
}

// retarget narrows sc.st to its block 1 (replication.State.Retarget)
// and carries the "$r" counts along: a replicated cell whose home copy
// stayed in block 0 continues as its replica. It re-targets through
// the V-cycle runner, which narrows the hierarchy of the carve's
// V-cycle, if it ran one, to the new remainder (multilevel.Runner.Retarget).
func (sc *carveScratch) retarget() {
	st := &sc.st
	j := 0
	for ci := range st.NumCells() {
		c := hypergraph.CellID(ci)
		if st.OutputsIn(c, 1) == 0 {
			continue
		}
		sc.reps[j] = sc.reps[c]
		if st.IsReplicated(c) && st.Home(c) == 0 {
			sc.reps[j]++
		}
		j++
	}
	sc.reps = sc.reps[:j]
	sc.ml.Retarget(st)
}

// takeParts gives the attempt's parts their cell lists for good: one
// exact-size copy of the worker's list, which the next attempt reuses,
// and counts the replicas each part's carves made.
func (sc *carveScratch) takeParts(parts []Part) {
	cells := slices.Clone(sc.cells)
	for i := range parts {
		n := len(parts[i].cells)
		parts[i].cells, cells = cells[:n:n], cells[n:]
		parts[i].Replicas = 0
		for _, c := range parts[i].cells {
			if c.reps > 0 {
				parts[i].Replicas++
			}
		}
	}
}

// checkRetarget checks the re-targeted state under Options.Verify: with
// every cell in block 1 it must pass CheckInvariants and hold the area
// and terminals block 1 had before.
func (sc *carveScratch) checkRetarget(area, terms int) error {
	st := &sc.st
	if err := st.ResetPinned(sc.block1(st.NumCells()), false); err != nil {
		return err
	}
	if err := st.CheckInvariants(); err != nil {
		return err
	}
	if st.Area(1) != area || st.Terminals(1) != terms || st.TotalArea() != area || st.NumExternal() != terms {
		return fmt.Errorf("remainder holds %d CLBs and %d terminals (totals %d, %d), block 1 held %d and %d",
			st.Area(1), st.Terminals(1), st.TotalArea(), st.NumExternal(), area, terms)
	}
	return nil
}

// block1 sizes sc.assign to n cells, all in block 1, and returns it.
func (sc *carveScratch) block1(n int) []replication.Block {
	sc.assign = slices.Grow(sc.assign[:0], n)[:n]
	for i := range sc.assign {
		sc.assign[i] = 1
	}
	return sc.assign
}

// sourceCells appends to dst every cell of g, whole.
func sourceCells(dst []cellSpec, g *hypergraph.Graph) []cellSpec {
	for ci := range g.Cells {
		dst = append(dst, cellSpec{cell: hypergraph.CellID(ci), outs: allOutputs(&g.Cells[ci])})
	}
	return dst
}

// allOutputs is the mask of every output of c.
func allOutputs(c *hypergraph.Cell) uint32 { return uint32(1)<<uint(len(c.Outputs)) - 1 }

// appendNets appends the nets a copy of c driving the outputs outs has
// pins on, in the order hypergraph.Subcircuit meets them: the inputs
// feeding those outputs (the functional-replication rule), in pin
// order, then the outputs. A net may appear more than once.
func appendNets(dst []hypergraph.NetID, c *hypergraph.Cell, outs uint32) []hypergraph.NetID {
	for j, n := range c.Inputs {
		if n == hypergraph.NilNet {
			continue
		}
		for m := outs; m != 0; m &= m - 1 {
			if c.Dep[bits.TrailingZeros32(m)].Get(j) {
				dst = append(dst, n)
				break
			}
		}
	}
	for i, n := range c.Outputs {
		if outs>>uint(i)&1 != 0 {
			dst = append(dst, n)
		}
	}
	return dst
}

// builder builds lists of cell copies as subcircuits of the source:
// the one path from the search's parts to graphs, for the returned
// result, the checks of Options.Verify and the V-cycle's input. ext
// marks, per source net, the nets the next build makes terminals (the
// source's own terminals stay terminals).
type builder struct {
	ext   []bool
	specs []hypergraph.InstanceSpec
	outs  []int
	nets  []hypergraph.NetID
	cells []cellSpec
}

// resetExt sizes ext to g's nets, all unmarked.
func (b *builder) resetExt(g *hypergraph.Graph) {
	b.ext = slices.Grow(b.ext[:0], len(g.Nets))[:len(g.Nets)]
	clear(b.ext)
}

// replicaStride is one more than the most "$r" suffixes a cell name of
// g ends in: 1 unless g names some cell like a replica. A copy that was
// the replica in reps carves is named after its cell plus reps·stride
// "$r" suffixes. Such a name ends in at least stride suffixes, so it
// repeats no source name; and it splits into a source name and a
// suffix count in one way only, so no two copies share it.
func replicaStride(g *hypergraph.Graph) int {
	stride := 1
	for ci := range g.Cells {
		k, name := 1, g.Cells[ci].Name
		for ; strings.HasSuffix(name, "$r"); name = name[:len(name)-2] {
			k++
		}
		stride = max(stride, k)
	}
	return stride
}

// build builds cells as the subcircuit of g named name, into a (nil:
// new storage).
func (b *builder) build(a *hypergraph.Arena, g *hypergraph.Graph, name string, cells []cellSpec) (*hypergraph.Graph, error) {
	stride := replicaStride(g)
	nOut := 0
	for _, c := range cells {
		nOut += bits.OnesCount32(c.outs)
	}
	b.specs = slices.Grow(b.specs[:0], len(cells))
	b.outs = slices.Grow(b.outs[:0], nOut)
	for _, c := range cells {
		src := &g.Cells[c.cell]
		spec := hypergraph.InstanceSpec{Cell: c.cell}
		if c.outs != allOutputs(src) {
			lo := len(b.outs)
			for m := c.outs; m != 0; m &= m - 1 {
				b.outs = append(b.outs, bits.TrailingZeros32(m))
			}
			spec.Outputs = b.outs[lo:len(b.outs):len(b.outs)]
		}
		if c.reps > 0 {
			spec.Rename = src.Name + strings.Repeat("$r", int(c.reps)*stride)
			spec.Replica = true
		}
		b.specs = append(b.specs, spec)
	}
	ext := func(n hypergraph.NetID) bool { return b.ext[n] }
	if a == nil {
		return g.Subcircuit(name, b.specs, ext)
	}
	return g.SubcircuitIn(a, name, b.specs, ext)
}

// buildParts builds the graph of every part that has none; a part
// holding the whole circuit is g itself. A net becomes a terminal of
// the parts it spans when it spans two or more: exactly the nets some
// carve on the way cut.
func buildParts(g *hypergraph.Graph, parts []Part) error {
	var b builder
	b.resetExt(g)
	last := make([]int32, len(g.Nets)) // per net: index+1 of the last part touching it
	for p := range parts {
		for _, c := range parts[p].cells {
			b.nets = appendNets(b.nets[:0], &g.Cells[c.cell], c.outs)
			for _, n := range b.nets {
				if l := last[n]; l != 0 && int(l) != p+1 {
					b.ext[n] = true
				}
				last[n] = int32(p + 1)
			}
		}
	}
	// One arena serves every build's survey and validation; each part
	// keeps its graph storage.
	var a hypergraph.Arena
	for p := range parts {
		if parts[p].Graph != nil {
			continue
		}
		if parts[p].depth == 0 && !parts[p].carved {
			parts[p].Graph = g
			continue
		}
		graph, err := b.build(&a, g, partName(g, parts[p].depth, parts[p].carved), parts[p].cells)
		a.Detach()
		if err != nil {
			return err
		}
		parts[p].Graph = graph
	}
	return nil
}

// verify builds the result's parts, leaving r's own without graphs, and
// runs Verify on them, and on a board verify.Routing as well.
func (r Result) verify(g *hypergraph.Graph, board *topology.Board) error {
	r.Parts = slices.Clone(r.Parts)
	if err := buildParts(g, r.Parts); err != nil {
		return err
	}
	if err := r.Verify(g); err != nil {
		return err
	}
	if board == nil {
		return nil
	}
	graphs := make([]*hypergraph.Graph, len(r.Parts))
	for i := range r.Parts {
		graphs[i] = r.Parts[i].Graph
	}
	return verify.Routing(board, graphs)
}

// markTerminals marks in sc.build the terminals of the remainder
// sc.st holds, and the nets it cuts when cut is set.
func (sc *carveScratch) markTerminals(g *hypergraph.Graph, cut bool) {
	st := &sc.st
	b := &sc.build
	b.resetExt(g)
	for ni := range st.NumNets() {
		n := hypergraph.NetID(ni)
		b.ext[st.SourceNet(n)] = st.IsExternal(n) || cut && st.CutNet(n)
	}
}

// verifySplit checks an accepted carve under Options.Verify: the
// carved block and the remainder, built from sc.st, must split the
// subcircuit they came from, built the same way (g itself at depth 0),
// per verify.Split.
func (sc *carveScratch) verifySplit(g *hypergraph.Graph, depth int) error {
	b := &sc.build
	parent := g
	if depth > 0 {
		sc.markTerminals(g, false)
		b.cells = sc.viewCells(b.cells[:0])
		var err error
		if parent, err = b.build(nil, g, partName(g, depth, false), b.cells); err != nil {
			return err
		}
	}
	sc.markTerminals(g, true)
	var blocks [2]*hypergraph.Graph
	for i := range blocks {
		b.cells = sc.blockCells(b.cells[:0], replication.Block(i))
		var err error
		if blocks[i], err = b.build(nil, g, partName(g, depth, false)+[]string{".0", ".1"}[i], b.cells); err != nil {
			return err
		}
	}
	return verify.Split(parent, blocks[0], blocks[1])
}
