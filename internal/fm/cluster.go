package fm

import (
	"math/rand"
	"slices"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// ClusterAssign produces an initial bipartition by growing a connected
// cluster: starting from a random cell, breadth-first over nets, cells
// are pulled into block 0 until it reaches targetArea; the rest go to
// block 1. Connected seeds give FM a far better starting cut than a
// random split, which matters for the carve-out steps of the k-way
// partitioner.
func ClusterAssign(g *hypergraph.Graph, seed int64, targetArea int) []replication.Block {
	return ClusterAssignFrom(g, seed, -1, targetArea)
}

// ClusterAssignFrom is ClusterAssign with an explicit start cell; pass
// -1 to pick a peripheral cell (one touching an external net), which
// produces carves with a single boundary instead of an island with two.
func ClusterAssignFrom(g *hypergraph.Graph, seed int64, start hypergraph.CellID, targetArea int) []replication.Block {
	var cs ClusterScratch
	return cs.AssignInto(nil, g, seed, start, targetArea)
}

// ClusterScratch holds the reusable buffers of the cluster-growing
// assignment. A zero value is ready to use; once it has served a graph
// at least as large, a call allocates nothing.
type ClusterScratch struct {
	rnd      *rand.Rand // reseeded per call
	visited  []bool
	queue    []hypergraph.CellID
	netSeen  []uint32 // per net: epoch stamp for duplicate suppression
	cellSeen []uint32 // per cell: epoch stamp (peripheral scan)
	periph   []hypergraph.CellID
	epoch    uint32
}

func (cs *ClusterScratch) grow(numCells, numNets int) {
	if cap(cs.visited) < numCells {
		cs.visited = make([]bool, numCells)
		cs.cellSeen = make([]uint32, numCells)
	}
	cs.visited = cs.visited[:numCells]
	cs.cellSeen = cs.cellSeen[:numCells]
	for i := range cs.visited {
		cs.visited[i] = false
	}
	if cap(cs.netSeen) < numNets {
		cs.netSeen = make([]uint32, numNets)
	}
	cs.netSeen = cs.netSeen[:numNets]
	cs.epoch++
	if cs.epoch == 0 {
		for i := range cs.netSeen {
			cs.netSeen[i] = 0
		}
		for i := range cs.cellSeen {
			cs.cellSeen[i] = 0
		}
		cs.epoch = 1
	}
	cs.queue = cs.queue[:0]
}

// AssignInto is ClusterAssignFrom writing into assign (grown when too
// small) and reusing the scratch buffers; it returns the assignment
// slice.
func (cs *ClusterScratch) AssignInto(assign []replication.Block, g *hypergraph.Graph, seed int64, start hypergraph.CellID, targetArea int) []replication.Block {
	cs.rnd = reseed(cs.rnd, seed)
	r := cs.rnd
	n := g.NumCells()
	if cap(assign) < n {
		assign = make([]replication.Block, n)
	}
	assign = assign[:n]
	for i := range assign {
		assign[i] = 1
	}
	if targetArea <= 0 || n == 0 {
		return assign
	}
	cs.grow(n, g.NumNets())
	if start < 0 {
		start = cs.peripheralCell(g, r)
	}
	area := 0
	enqueue := func(c hypergraph.CellID) {
		if !cs.visited[c] {
			cs.visited[c] = true
			cs.queue = append(cs.queue, c)
		}
	}
	// visitNets walks the cell's distinct nets in pin order (outputs
	// first), enqueuing every connected cell — the allocation-free
	// equivalent of ranging over g.CellNets(c).
	visitNet := func(net hypergraph.NetID) {
		if cs.netSeen[net] == cs.epoch {
			return
		}
		cs.netSeen[net] = cs.epoch
		if len(g.Nets[net].Conns) > 32 {
			// Skip very high fanout nets (clock-like); they do not
			// indicate locality.
			return
		}
		for _, cn := range g.Nets[net].Conns {
			enqueue(cn.Cell)
		}
	}
	enqueue(start)
	for area < targetArea {
		if len(cs.queue) == 0 {
			// Disconnected remainder: restart from an unvisited cell.
			rest := -1
			for i := 0; i < n; i++ {
				if !cs.visited[i] {
					rest = i
					break
				}
			}
			if rest < 0 {
				break
			}
			enqueue(hypergraph.CellID(rest))
			continue
		}
		// Pop a random frontier element for variety across seeds.
		idx := r.Intn(len(cs.queue))
		c := cs.queue[idx]
		cs.queue[idx] = cs.queue[len(cs.queue)-1]
		cs.queue = cs.queue[:len(cs.queue)-1]
		if area+g.Cells[c].Area > targetArea && area > 0 {
			continue
		}
		assign[c] = 0
		area += g.Cells[c].Area
		cell := &g.Cells[c]
		for _, net := range cell.Outputs {
			visitNet(net)
		}
		for _, net := range cell.Inputs {
			if net != hypergraph.NilNet {
				visitNet(net)
			}
		}
	}
	return assign
}

// peripheralCell picks a random cell adjacent to an external net, or
// any cell when the circuit has no terminals.
func (cs *ClusterScratch) peripheralCell(g *hypergraph.Graph, r *rand.Rand) hypergraph.CellID {
	cs.periph = cs.periph[:0]
	for ni := range g.Nets {
		if g.Nets[ni].Ext == hypergraph.Internal {
			continue
		}
		for _, cn := range g.Nets[ni].Conns {
			if cs.cellSeen[cn.Cell] != cs.epoch {
				cs.cellSeen[cn.Cell] = cs.epoch
				cs.periph = append(cs.periph, cn.Cell)
			}
		}
	}
	if len(cs.periph) == 0 {
		return hypergraph.CellID(r.Intn(g.NumCells()))
	}
	return cs.periph[r.Intn(len(cs.periph))]
}

// AssignView is AssignInto from a peripheral cell, over the cells and
// nets of st rather than a graph: on a re-targeted state
// (replication.State.Retarget) it grows the cluster AssignInto grows on
// the remainder graph the state mirrors. A cell's active nets in
// first-pin order stand in for its pins, and a net's cells with active
// pins, in cell order, for its connections: a remainder graph has no
// other pins.
func (cs *ClusterScratch) AssignView(assign []replication.Block, st *replication.State, seed int64, targetArea int) []replication.Block {
	cs.rnd = reseed(cs.rnd, seed)
	r := cs.rnd
	n := st.NumCells()
	assign = slices.Grow(assign[:0], n)[:n]
	for i := range assign {
		assign[i] = 1
	}
	if targetArea <= 0 || n == 0 {
		return assign
	}
	cs.grow(n, st.NumNets())
	enqueue := func(c hypergraph.CellID) {
		if !cs.visited[c] {
			cs.visited[c] = true
			cs.queue = append(cs.queue, c)
		}
	}
	visitNet := func(net hypergraph.NetID) {
		if cs.netSeen[net] == cs.epoch {
			return
		}
		cs.netSeen[net] = cs.epoch
		conns := st.NetConns(net)
		pins := 0
		for _, nc := range conns {
			pins += int(nc.K)
		}
		if pins > 32 {
			return
		}
		for _, nc := range conns {
			enqueue(nc.Cell)
		}
	}
	enqueue(cs.peripheralView(st, r))
	area := 0
	for area < targetArea {
		if len(cs.queue) == 0 {
			rest := slices.Index(cs.visited, false)
			if rest < 0 {
				break
			}
			enqueue(hypergraph.CellID(rest))
			continue
		}
		idx := r.Intn(len(cs.queue))
		c := cs.queue[idx]
		cs.queue[idx] = cs.queue[len(cs.queue)-1]
		cs.queue = cs.queue[:len(cs.queue)-1]
		if area+st.CellArea(c) > targetArea && area > 0 {
			continue
		}
		assign[c] = 0
		area += st.CellArea(c)
		for _, net := range st.CellNets(c) {
			visitNet(net)
		}
	}
	return assign
}

// peripheralView is peripheralCell over st's cells and nets.
func (cs *ClusterScratch) peripheralView(st *replication.State, r *rand.Rand) hypergraph.CellID {
	cs.periph = cs.periph[:0]
	for ni := range st.NumNets() {
		net := hypergraph.NetID(ni)
		if !st.IsExternal(net) {
			continue
		}
		for _, nc := range st.NetConns(net) {
			if cs.cellSeen[nc.Cell] != cs.epoch {
				cs.cellSeen[nc.Cell] = cs.epoch
				cs.periph = append(cs.periph, nc.Cell)
			}
		}
	}
	if len(cs.periph) == 0 {
		return hypergraph.CellID(r.Intn(st.NumCells()))
	}
	return cs.periph[r.Intn(len(cs.periph))]
}

// reseed returns r reset to the stream rand.New(rand.NewSource(seed))
// yields, allocating a generator only when r is nil.
func reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}
