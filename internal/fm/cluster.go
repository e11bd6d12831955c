package fm

import (
	"math/rand"
	"slices"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// ClusterScratch grows the initial bipartitions of carves and of the
// V-cycle's coarsest starts (Assign) and holds the walk's reusable
// buffers. A zero value is ready to use; once it has served a state at
// least as large, a call allocates nothing.
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

// Assign grows an initial bipartition of the cells st holds as a
// connected cluster, writing it into assign (grown when too small), and
// returns it. Starting from a random peripheral cell (one on an
// external net, so the carve has a single boundary instead of an
// island's two), breadth-first over nets, cells are pulled into block
// 0 until it reaches targetArea; the rest go to block 1. Connected
// seeds give FM a far better starting cut than a random split, which
// matters for the carve-out steps of the k-way partitioner.
//
// The walk reads only st's cells and nets: a cell's active nets in
// first-pin order (outputs, then inputs) and a net's cells with active
// pins, in cell order. A dependency-free input pin is no connection
// here, although its graph lists it. On a re-targeted state
// (replication.State.Retarget) the walk grows the cluster it grows on
// a state rebound to the remainder graph the state mirrors.
func (cs *ClusterScratch) Assign(assign []replication.Block, st *replication.State, seed int64, targetArea int) []replication.Block {
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
			// Very high fanout nets (clock-like) do not indicate locality.
			return
		}
		for _, nc := range conns {
			enqueue(nc.Cell)
		}
	}
	enqueue(cs.peripheralCell(st, r))
	area := 0
	for area < targetArea {
		if len(cs.queue) == 0 {
			// Disconnected remainder: restart from an unvisited cell.
			rest := slices.Index(cs.visited, false)
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

// peripheralCell picks a random cell of st adjacent to an external
// net, or any cell when st has no terminals.
func (cs *ClusterScratch) peripheralCell(st *replication.State, r *rand.Rand) hypergraph.CellID {
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
