// Package cluster implements connectivity-based bottom-up clustering —
// the "combine with clustering techniques [17]" refinement the paper's
// conclusion points to (Hagen & Kahng, ICCAD'92). Tightly connected
// cells are contracted into super-cells; an FM bipartition of the
// coarse level projects back to the finer one as a high-quality initial
// partition for the fine-grained engine.
//
// A level is a replication.State, read through its arrays (the cells'
// active nets, the nets' cells with their pin counts, areas, output
// counts and terminal flags) and contracted straight into the next
// level's static tables: no graph, no names.
package cluster

import (
	"fmt"
	"math/rand"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// Options tunes Build.
type Options struct {
	// MaxClusterArea caps a super-cell's total area (default 8).
	MaxClusterArea int
	// MaxClusterOutputs caps a super-cell's combined output count
	// (0 = unlimited). The bound is conservative — it sums the member
	// cells' outputs even though outputs consumed inside the cluster
	// vanish — so downstream consumers with hard per-cell output
	// limits (replication.State admits at most 32) can rely on it.
	MaxClusterOutputs int
	// MaxFanout ignores nets with more pins than this when scoring
	// affinity (clock-like nets carry no locality). Default 16.
	MaxFanout int
	Seed      int64
}

func (o Options) withDefaults() Options {
	if o.MaxClusterArea == 0 {
		o.MaxClusterArea = 8
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = 16
	}
	return o
}

// Clustering relates a contracted level to the cells of the level it
// was contracted from.
type Clustering struct {
	// Level is the contracted level: one cell per cluster, with no
	// partition until it is reset.
	Level   *replication.State
	Members [][]hypergraph.CellID // per coarse cell: the finer level's cell ids
}

// Project expands a coarse-level assignment to the finer level's
// numCells cells, writing into dst (grown when too small), and returns
// the finer assignment.
func (c *Clustering) Project(dst, coarse []replication.Block, numCells int) ([]replication.Block, error) {
	if len(coarse) != len(c.Members) {
		return nil, fmt.Errorf("cluster: assignment over %d cells, coarse level has %d", len(coarse), len(c.Members))
	}
	out := resize(dst, numCells)
	seen := 0
	for ci, members := range c.Members {
		for _, m := range members {
			if int(m) >= numCells {
				return nil, fmt.Errorf("cluster: member %d outside the finer level", m)
			}
			out[m] = coarse[ci]
			seen++
		}
	}
	if seen != numCells {
		return nil, fmt.Errorf("cluster: members cover %d of %d cells", seen, numCells)
	}
	return out, nil
}

// Coarsener contracts levels into storage it keeps between calls: the
// level and member lists of one contraction per slot, so a caller that
// builds a hierarchy level by level into slots 0, 1, 2, ... recycles
// the arrays of its previous hierarchy or narrows it (Narrow), plus
// matching and contraction scratch that every slot shares. Scratch is
// grown to exactly the size a call needs, and a slot's level keeps the
// capacity of the largest level built there, so a Coarsener retains
// about one hierarchy of the largest level it has contracted. A zero
// Coarsener is ready to use; it is not safe for concurrent use.
type Coarsener struct {
	slots []*slot    // pointers: a Clustering points into its slot
	rng   *rand.Rand // reseeded per Build

	// Matching scratch: per fine cell, and per fine net.
	match   []int
	order   []int
	taken   []bool
	weight  []float64
	touched []hypergraph.CellID
	pins    []int32

	// Narrowing scratch: the maps Narrow returns, alternating by slot.
	ids [2][]int32

	// Contraction scratch: per fine cell, per fine net and per coarse
	// net; ins and outs hold one cluster's pins.
	clusterOf []int32
	first     []int32
	shared    []bool
	driver    []int32
	netID     []hypergraph.NetID
	seenIn    []int32
	seenOut   []int32
	ins       []hypergraph.NetID
	outs      []hypergraph.NetID
}

// slot is the storage of one contraction's result. Build into a slot
// overwrites the level and clustering previously built there.
type slot struct {
	level   replication.State
	members []hypergraph.CellID
	lists   [][]hypergraph.CellID
	cl      Clustering
}

// resize returns s with length n, reusing its array when it is large
// enough and otherwise allocating exactly n elements. The contents are
// unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Build contracts st by one round of heavy-edge matching into slot i
// and returns the slot's clustering, valid until the next Build into
// slot i; st must not be the level of slot i. Every contraction gives
// its level a new layout (replication.State.Layout), so the FM
// engines' per-layout buffers never mistake a recycled level for the
// one it replaced.
func (c *Coarsener) Build(i int, st *replication.State, opts Options) (*Clustering, error) {
	opts = opts.withDefaults()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		c.rng.Seed(opts.Seed)
	}
	return c.contract(i, st, c.matchRound(st, opts, c.rng))
}

// Narrow re-contracts slot i after the level it was contracted from
// has been narrowed to st: ids maps each cell of that finer level to
// its cell in st, or to -1 when it dropped out. A pair whose members
// both survive stays a pair, a pair with one survivor becomes a
// singleton and a pair with none vanishes; the slot's level is then
// contracted from st by that matching, as Build contracts by its own.
// Narrow returns the new clustering, valid until the next contraction
// into slot i, and the map of the slot's old cells to its new ones,
// valid until the next Narrow into a slot of the same parity, so that
// it can be passed on to slot i+1. A warm Coarsener narrows without
// allocating.
func (c *Coarsener) Narrow(i int, st *replication.State, ids []int32) (*Clustering, []int32, error) {
	if i >= len(c.slots) {
		return nil, nil, fmt.Errorf("cluster: no slot %d to narrow", i)
	}
	s := c.slots[i]
	if len(ids) != len(s.members) {
		return nil, nil, fmt.Errorf("cluster: %d ids for a slot contracted from %d cells", len(ids), len(s.members))
	}
	n := st.NumCells()
	match := resize(c.match, n)
	c.match = match
	next := resize(c.ids[i%2], len(s.lists))
	c.ids[i%2] = next
	covered := 0
	for j, ms := range s.lists {
		a, b := int32(-1), int32(-1)
		for _, m := range ms {
			switch id := ids[m]; {
			case id < 0:
			case id >= int32(n):
				return nil, nil, fmt.Errorf("cluster: id %d outside the narrowed level's %d cells", id, n)
			case a < 0:
				a = id
			default:
				b = id
			}
		}
		next[j] = a
		switch {
		case b >= 0:
			match[a], match[b] = int(b), int(a)
			covered += 2
		case a >= 0:
			match[a] = int(a)
			covered++
		}
	}
	if covered != n {
		return nil, nil, fmt.Errorf("cluster: ids cover %d of the narrowed level's %d cells", covered, n)
	}
	cl, err := c.contract(i, st, match)
	if err != nil {
		return nil, nil, err
	}
	for j, a := range next {
		if a >= 0 {
			next[j] = c.clusterOf[a]
		}
	}
	return cl, next, nil
}

// matchRound pairs each cell with its highest-affinity unmatched
// neighbor, subject to the area cap. match[i] = partner index or i.
// The cells are visited in the order r.Perm would return.
//
// A net scores by its pins, Σ K over its cells, and a neighbor gains
// its weight once per pin it has on the net, added pin by pin so the
// float sums are those of a walk over the pins. The pin counts are
// summed once per call, so reading one is O(1). Affinities accumulate
// in a dense per-cell array; touched lists the cells with a non-zero
// entry so only those are scanned and cleared. The partner is the
// feasible neighbor of highest weight, ties going to the lowest id: a
// total order, so the choice does not depend on the order touched is
// scanned in.
func (c *Coarsener) matchRound(st *replication.State, opts Options, r *rand.Rand) []int {
	n := st.NumCells()
	match := resize(c.match, n)
	for i := range match {
		match[i] = i
	}
	order := resize(c.order, n)
	for i := range order {
		j := r.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	taken := resize(c.taken, n)
	clear(taken)
	weight := resize(c.weight, n)
	clear(weight)
	touched := c.touched[:0]
	pins := resize(c.pins, st.NumNets())
	for ni := range pins {
		k := int32(0)
		for _, nc := range st.NetConns(hypergraph.NetID(ni)) {
			k += nc.K
		}
		pins[ni] = k
	}
	c.match, c.order, c.taken, c.weight, c.pins = match, order, taken, weight, pins
	for _, ui := range order {
		if taken[ui] {
			continue
		}
		u := hypergraph.CellID(ui)
		for _, net := range st.CellNets(u) {
			k := int(pins[net])
			if k > opts.MaxFanout || k < 2 {
				continue
			}
			w := 1.0 / float64(k-1)
			for _, nc := range st.NetConns(net) {
				if nc.Cell == u || taken[nc.Cell] {
					continue
				}
				if weight[nc.Cell] == 0 {
					touched = append(touched, nc.Cell)
				}
				for range nc.K {
					weight[nc.Cell] += w
				}
			}
		}
		best := hypergraph.CellID(-1)
		bestW := 0.0
		for _, v := range touched {
			w := weight[v]
			weight[v] = 0
			if st.CellArea(u)+st.CellArea(v) > opts.MaxClusterArea {
				continue
			}
			if opts.MaxClusterOutputs > 0 &&
				st.NumOutputs(u)+st.NumOutputs(v) > opts.MaxClusterOutputs {
				continue
			}
			if w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		touched = touched[:0]
		if best >= 0 {
			taken[ui], taken[best] = true, true
			match[ui] = int(best)
			match[best] = ui
		}
	}
	c.touched = touched
	return match
}

// contract builds the level induced by the matching into slot i. Cells
// are the clusters in representative order (the smaller index of a
// pair). Nets fully inside one cluster vanish; the surviving ones, a
// net shared by two clusters or a terminal, keep their terminal flag
// and their order. A cluster reads the input nets of its members, in
// member order, that it does not drive, and drives their output nets,
// each listed once. The contraction checks what validating a coarse
// graph would: no net has two drivers, every cluster keeps an output,
// and AddLevelCell refuses a non-positive area, more than
// replication.MaxOutputs outputs and a pin off the level.
//
// A cell's active nets, in first-pin order, are its output nets
// followed by the input nets it does not drive, so the first
// NumOutputs of them are its outputs.
func (c *Coarsener) contract(i int, st *replication.State, match []int) (*Clustering, error) {
	for len(c.slots) <= i {
		c.slots = append(c.slots, &slot{})
	}
	s := c.slots[i]
	n := st.NumCells()
	k := 0
	for ci := 0; ci < n; ci++ {
		if match[ci] >= ci { // representative: the smaller index of a pair
			k++
		}
	}
	clusterOf := resize(c.clusterOf, n)
	c.clusterOf = clusterOf
	s.members = resize(s.members, n)
	s.lists = resize(s.lists, k)
	off, cl := 0, int32(0)
	for ci := 0; ci < n; ci++ {
		if match[ci] < ci {
			continue
		}
		start := off
		clusterOf[ci] = cl
		s.members[off] = hypergraph.CellID(ci)
		off++
		if match[ci] != ci {
			clusterOf[match[ci]] = cl
			s.members[off] = hypergraph.CellID(match[ci])
			off++
		}
		s.lists[cl] = s.members[start:off:off]
		cl++
	}

	// Survey nets: the first cluster touching each net, whether a second
	// one does, and the cluster driving it (-1 = none).
	m := st.NumNets()
	first := resize(c.first, m)
	shared := resize(c.shared, m)
	driver := resize(c.driver, m)
	c.first, c.shared, c.driver = first, shared, driver
	clear(shared)
	for ni := range first {
		first[ni], driver[ni] = -1, -1
	}
	for ci := 0; ci < n; ci++ {
		cl := clusterOf[ci]
		nets := st.CellNets(hypergraph.CellID(ci))
		outs := st.NumOutputs(hypergraph.CellID(ci))
		for j, net := range nets {
			switch first[net] {
			case -1:
				first[net] = cl
			case cl:
			default:
				shared[net] = true
			}
			if j < outs {
				if driver[net] >= 0 {
					return nil, fmt.Errorf("cluster: net %d has two drivers", net)
				}
				driver[net] = cl
			}
		}
	}
	surviving := 0
	for ni := range shared {
		if shared[ni] || st.IsExternal(hypergraph.NetID(ni)) {
			surviving++
		}
	}
	lv := &s.level
	lv.StartLevel(k, surviving)
	netID := resize(c.netID, m)
	c.netID = netID
	id := hypergraph.NetID(0)
	for ni := range shared {
		ext := st.IsExternal(hypergraph.NetID(ni))
		if !shared[ni] && !ext {
			netID[ni] = hypergraph.NilNet // fully internal to one cluster
			continue
		}
		lv.AddLevelNet(ext)
		netID[ni] = id
		id++
	}

	// Gather each cluster's pins. seenIn/seenOut[id] = cl+1 once
	// cluster cl listed coarse net id.
	seenIn := resize(c.seenIn, surviving)
	seenOut := resize(c.seenOut, surviving)
	c.seenIn, c.seenOut = seenIn, seenOut
	clear(seenIn)
	clear(seenOut)
	ins, outs := c.ins, c.outs
	for cl, ms := range s.lists {
		stamp := int32(cl + 1)
		ins, outs = ins[:0], outs[:0]
		area := 0
		for _, mi := range ms {
			area += st.CellArea(mi)
			nets := st.CellNets(mi)
			no := st.NumOutputs(mi)
			for _, net := range nets[:no] {
				if id := netID[net]; id != hypergraph.NilNet && seenOut[id] != stamp {
					seenOut[id] = stamp
					outs = append(outs, id)
				}
			}
			for _, net := range nets[no:] {
				id := netID[net]
				if id == hypergraph.NilNet || seenIn[id] == stamp || driver[net] == int32(cl) {
					continue // internal, duplicate, or driven by this cluster
				}
				seenIn[id] = stamp
				ins = append(ins, id)
			}
		}
		if len(outs) == 0 {
			// Every output net is consumed only inside the cluster (an
			// isolated pair feeding each other); a cell needs an output.
			c.ins, c.outs = ins, outs
			return nil, fmt.Errorf("cluster: cluster %d has no surviving outputs", cl)
		}
		if err := lv.AddLevelCell(area, ins, outs); err != nil {
			c.ins, c.outs = ins, outs
			return nil, err
		}
	}
	c.ins, c.outs = ins, outs
	lv.FinishLevel()
	s.cl = Clustering{Level: lv, Members: s.lists}
	return &s.cl, nil
}
