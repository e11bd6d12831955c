// Package cluster implements connectivity-based bottom-up clustering —
// the "combine with clustering techniques [17]" refinement the paper's
// conclusion points to (Hagen & Kahng, ICCAD'92). Tightly connected
// cells are contracted into super-cells; an FM bipartition of the
// coarse hypergraph projects back to the flat netlist as a high-quality
// initial partition for the fine-grained engine.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"unsafe"

	"fpgapart/internal/bitset"
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
	// MaxFanout ignores nets with more connections than this when
	// scoring affinity (clock-like nets carry no locality). Default 16.
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

// Clustering relates a coarse hypergraph to the cells of the graph it
// was contracted from.
type Clustering struct {
	Graph   *hypergraph.Graph
	Members [][]hypergraph.CellID // per coarse cell: the finer graph's cell ids
}

// Project expands a coarse-level assignment to the original cells.
func (c *Clustering) Project(coarse []replication.Block, numCells int) ([]replication.Block, error) {
	if len(coarse) != len(c.Members) {
		return nil, fmt.Errorf("cluster: assignment over %d cells, coarse graph has %d", len(coarse), len(c.Members))
	}
	out := make([]replication.Block, numCells)
	seen := 0
	for ci, members := range c.Members {
		for _, m := range members {
			if int(m) >= numCells {
				return nil, fmt.Errorf("cluster: member %d outside original graph", m)
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

// Build contracts g by one round of heavy-edge matching into fresh
// storage; Coarsener.Build is the storage-reusing form.
func Build(g *hypergraph.Graph, opts Options) (*Clustering, error) {
	var c Coarsener
	return c.Build(0, g, opts)
}

// Coarsener contracts graphs into storage it keeps between calls: the
// output arrays of one contraction per slot, so a caller that builds a
// hierarchy level by level into slots 0, 1, 2, ... recycles the arrays
// of its previous hierarchy, plus matching and contraction scratch that
// every slot shares. Every buffer is grown to exactly the size a call
// needs, so a Coarsener retains one hierarchy of the largest graph it
// has contracted. A zero Coarsener is ready to use; it is not safe for
// concurrent use.
type Coarsener struct {
	slots []slot
	rng   *rand.Rand // reseeded per Build

	// Matching scratch: per fine cell, and per fine net.
	match   []int
	order   []int
	taken   []bool
	weight  []float64
	touched []hypergraph.CellID
	visited []int32

	// Contraction scratch: per fine cell, per fine net, per coarse net
	// and per fine pin; outs holds one cluster's outputs.
	clusterOf []int32
	first     []int32
	shared    []bool
	driver    []int32
	netID     []hypergraph.NetID
	seenIn    []int32
	seenOut   []int32
	pins      []hypergraph.NetID
	outs      []hypergraph.NetID
	netNames  map[string]struct{} // duplicate net-name check, cleared per call

	names []string // names[i] = "k"+i, every slot's coarse cell names
}

// slot is the storage of one contraction's result. Build into a slot
// overwrites the graph and clustering previously built there.
type slot struct {
	cells   []hypergraph.Cell
	nets    []hypergraph.Net
	pins    []hypergraph.NetID
	dep     []bitset.Vector
	words   []uint64
	conns   []hypergraph.Conn
	members []hypergraph.CellID
	lists   [][]hypergraph.CellID
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

// Build contracts g by one round of heavy-edge matching into slot i.
// The result is a new Graph and Clustering header over the slot's
// arrays: it stays valid until the next Build into slot i, and g must
// not be a graph built there. Headers are never reused, so callers
// keying caches on graph identity see every contraction as a new graph.
func (c *Coarsener) Build(i int, g *hypergraph.Graph, opts Options) (*Clustering, error) {
	opts = opts.withDefaults()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		c.rng.Seed(opts.Seed)
	}
	return c.contract(i, g, c.matchRound(g, opts, c.rng))
}

// Retained returns the bytes of every buffer the Coarsener keeps,
// counted by capacity (the name-check map and the random source
// aside).
func (c *Coarsener) Retained() int {
	n := bytesOf(c.slots) + bytesOf(c.match) + bytesOf(c.order) + bytesOf(c.taken) +
		bytesOf(c.weight) + bytesOf(c.touched) + bytesOf(c.visited) + bytesOf(c.clusterOf) +
		bytesOf(c.first) + bytesOf(c.shared) + bytesOf(c.driver) + bytesOf(c.netID) +
		bytesOf(c.seenIn) + bytesOf(c.seenOut) + bytesOf(c.pins) + bytesOf(c.outs) + bytesOf(c.names)
	for _, name := range c.names {
		n += len(name)
	}
	for i := range c.slots {
		s := &c.slots[i]
		n += bytesOf(s.cells) + bytesOf(s.nets) + bytesOf(s.pins) + bytesOf(s.dep) +
			bytesOf(s.words) + bytesOf(s.conns) + bytesOf(s.members) + bytesOf(s.lists)
	}
	return n
}

func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// matchRound pairs each cell with its highest-affinity unmatched
// neighbor, subject to the area cap. match[i] = partner index or i.
// The cells are visited in the order r.Perm would return.
//
// Affinities accumulate in a dense per-cell array; touched lists the
// cells with a non-zero entry so only those are scanned and cleared.
// The partner is the feasible neighbor of highest weight, ties going to
// the lowest id: a total order, so the choice does not depend on the
// order touched is scanned in.
func (c *Coarsener) matchRound(g *hypergraph.Graph, opts Options, r *rand.Rand) []int {
	n := g.NumCells()
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
	// visited[net] = ui+1 once cell ui scored the net: a cell with
	// several pins on one net counts the net once.
	visited := resize(c.visited, g.NumNets())
	clear(visited)
	c.match, c.order, c.taken, c.weight, c.visited = match, order, taken, weight, visited
	score := func(ui int, net hypergraph.NetID) {
		if net == hypergraph.NilNet || visited[net] == int32(ui+1) {
			return
		}
		visited[net] = int32(ui + 1)
		conns := g.Nets[net].Conns
		if len(conns) > opts.MaxFanout || len(conns) < 2 {
			return
		}
		w := 1.0 / float64(len(conns)-1)
		for _, cn := range conns {
			if int(cn.Cell) != ui && !taken[cn.Cell] {
				if weight[cn.Cell] == 0 {
					touched = append(touched, cn.Cell)
				}
				weight[cn.Cell] += w
			}
		}
	}
	for _, ui := range order {
		if taken[ui] {
			continue
		}
		u := &g.Cells[ui]
		for _, net := range u.Outputs {
			score(ui, net)
		}
		for _, net := range u.Inputs {
			score(ui, net)
		}
		best := hypergraph.CellID(-1)
		bestW := 0.0
		for _, v := range touched {
			w := weight[v]
			weight[v] = 0
			if u.Area+g.Cells[v].Area > opts.MaxClusterArea {
				continue
			}
			if opts.MaxClusterOutputs > 0 &&
				len(u.Outputs)+len(g.Cells[v].Outputs) > opts.MaxClusterOutputs {
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

// contract builds the coarse hypergraph induced by the matching into
// slot i. Nets fully inside one cluster vanish; surviving nets keep
// their name and external kind. Coarse cells use full dependence
// (replication runs at the fine level only). The result is checked as
// hypergraph.Builder checks a graph: no duplicate net name, then
// Validate.
func (c *Coarsener) contract(i int, g *hypergraph.Graph, match []int) (*Clustering, error) {
	for len(c.slots) <= i {
		c.slots = append(c.slots, slot{})
	}
	s := &c.slots[i]
	n := g.NumCells()
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
	// one does, and the cluster driving it (-1 = external).
	m := g.NumNets()
	first := resize(c.first, m)
	shared := resize(c.shared, m)
	driver := resize(c.driver, m)
	c.first, c.shared, c.driver = first, shared, driver
	clear(shared)
	for ni := range first {
		first[ni], driver[ni] = -1, -1
	}
	touch := func(net hypergraph.NetID, cl int32) {
		switch first[net] {
		case -1:
			first[net] = cl
		case cl:
		default:
			shared[net] = true
		}
	}
	finePins := 0
	for ci := range g.Cells {
		cl := clusterOf[ci]
		cell := &g.Cells[ci]
		finePins += cell.NumPins()
		for _, net := range cell.Outputs {
			touch(net, cl)
			driver[net] = cl
		}
		for _, net := range cell.Inputs {
			if net != hypergraph.NilNet {
				touch(net, cl)
			}
		}
	}
	surviving := 0
	for ni := range g.Nets {
		if shared[ni] || g.Nets[ni].Ext != hypergraph.Internal {
			surviving++
		}
	}
	s.nets = resize(s.nets, surviving)
	netID := resize(c.netID, m)
	c.netID = netID
	if c.netNames == nil {
		c.netNames = make(map[string]struct{}, surviving)
	}
	clear(c.netNames)
	id := hypergraph.NetID(0)
	for ni := range g.Nets {
		netID[ni] = hypergraph.NilNet
		net := &g.Nets[ni]
		if !shared[ni] && net.Ext == hypergraph.Internal {
			continue // fully internal to one cluster
		}
		if _, dup := c.netNames[net.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate net name %q in %q", net.Name, g.Name)
		}
		c.netNames[net.Name] = struct{}{}
		s.nets[id] = hypergraph.Net{Name: net.Name, Ext: net.Ext}
		netID[ni] = id
		id++
	}

	// Gather each cluster's pins, inputs then outputs, into the per-pin
	// scratch (a coarse pin is a distinct fine pin, so it never fills
	// up). seenIn/seenOut[id] = cl+1 once cluster cl listed coarse net id.
	seenIn := resize(c.seenIn, surviving)
	seenOut := resize(c.seenOut, surviving)
	clear(seenIn)
	clear(seenOut)
	pins := resize(c.pins, finePins)[:0]
	outs := c.outs
	s.cells = resize(s.cells, k)
	if len(c.names) < k {
		c.names = growNames(c.names, k)
	}
	outputs, words := 0, 0
	for cl, ms := range s.lists {
		stamp := int32(cl + 1)
		start := len(pins)
		outs = outs[:0]
		area, dffs := 0, 0
		for _, mi := range ms {
			cell := &g.Cells[mi]
			area += cell.Area
			dffs += cell.DFFs
			for _, net := range cell.Outputs {
				if id := netID[net]; id != hypergraph.NilNet && seenOut[id] != stamp {
					seenOut[id] = stamp
					outs = append(outs, id)
				}
			}
			for _, net := range cell.Inputs {
				if net == hypergraph.NilNet {
					continue
				}
				id := netID[net]
				if id == hypergraph.NilNet || seenIn[id] == stamp || driver[net] == int32(cl) {
					continue // internal, duplicate, or driven by this cluster
				}
				seenIn[id] = stamp
				pins = append(pins, id)
			}
		}
		if len(outs) == 0 {
			// Every output net is consumed only inside the cluster (an
			// isolated pair feeding each other); a cell needs an output.
			return nil, fmt.Errorf("cluster: cluster %d of %q has no surviving outputs", cl, g.Name)
		}
		nIn := len(pins) - start
		pins = append(pins, outs...)
		s.cells[cl] = hypergraph.Cell{
			Name:    c.names[cl],
			Inputs:  pins[start : start+nIn],
			Outputs: pins[start+nIn:],
			Area:    area,
			DFFs:    dffs,
		}
		outputs += len(outs)
		words += len(outs) * bitset.Words(nIn)
	}
	c.pins, c.outs = pins, outs

	// Move the pins into the slot and give every output a full
	// dependency row.
	s.pins = resize(s.pins, len(pins))
	copy(s.pins, pins)
	s.dep = resize(s.dep, outputs)
	s.words = resize(s.words, words)
	off, row, rest := 0, 0, s.words
	for ci := range s.cells {
		cell := &s.cells[ci]
		nIn, nOut := len(cell.Inputs), len(cell.Outputs)
		cell.Inputs = s.pins[off : off+nIn : off+nIn]
		cell.Outputs = s.pins[off+nIn : off+nIn+nOut : off+nIn+nOut]
		off += nIn + nOut
		cell.Dep = s.dep[row : row+nOut : row+nOut]
		for r := range cell.Dep {
			cell.Dep[r], rest = bitset.CarveFull(rest, nIn)
		}
		row += nOut
	}

	coarse := &hypergraph.Graph{Name: g.Name + "~", Cells: s.cells, Nets: s.nets}
	s.conns = coarse.RebuildConnsInto(s.conns)
	if err := coarse.Validate(); err != nil {
		return nil, err
	}
	return &Clustering{Graph: coarse, Members: s.lists}, nil
}

// growNames returns names extended to exactly k entries, names[i] =
// "k"+i.
func growNames(names []string, k int) []string {
	out := make([]string, k)
	copy(out, names)
	for i := len(names); i < k; i++ {
		out[i] = "k" + strconv.Itoa(i)
	}
	return out
}

// sortCells is a test helper ordering member lists deterministically.
func (c *Clustering) sortCells() {
	for _, ms := range c.Members {
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	}
}
