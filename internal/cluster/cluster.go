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

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// Options tunes Build.
type Options struct {
	// Rounds of pairwise matching (each roughly halves the cell count).
	// Default 2.
	Rounds int
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
	if o.Rounds == 0 {
		o.Rounds = 2
	}
	if o.MaxClusterArea == 0 {
		o.MaxClusterArea = 8
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = 16
	}
	return o
}

// Clustering relates a coarse hypergraph to the original cells.
type Clustering struct {
	Graph   *hypergraph.Graph
	Members [][]hypergraph.CellID // per coarse cell: original cell ids
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

// Build contracts the graph by repeated heavy-edge matching.
func Build(g *hypergraph.Graph, opts Options) (*Clustering, error) {
	opts = opts.withDefaults()
	cur := g
	ids := make([]hypergraph.CellID, g.NumCells())
	members := make([][]hypergraph.CellID, g.NumCells())
	for i := range members {
		ids[i] = hypergraph.CellID(i)
		members[i] = ids[i : i+1 : i+1]
	}
	r := rand.New(rand.NewSource(opts.Seed))
	for round := 0; round < opts.Rounds; round++ {
		match := matchRound(cur, opts, r)
		coarse, coarseMembers, err := contract(cur, match)
		if err != nil {
			return nil, err
		}
		if coarse.NumCells() >= cur.NumCells() {
			break // no progress
		}
		// Compose membership through this round, every list carved from
		// one buffer over the original cells.
		buf := make([]hypergraph.CellID, 0, g.NumCells())
		next := make([][]hypergraph.CellID, len(coarseMembers))
		for ci, ms := range coarseMembers {
			start := len(buf)
			for _, m := range ms {
				buf = append(buf, members[m]...)
			}
			next[ci] = buf[start:len(buf):len(buf)]
		}
		members = next
		cur = coarse
	}
	return &Clustering{Graph: cur, Members: members}, nil
}

// matchRound pairs each cell with its highest-affinity unmatched
// neighbor, subject to the area cap. match[i] = partner index or i.
//
// Affinities accumulate in a dense per-cell array; touched lists the
// cells with a non-zero entry so only those are scanned and cleared.
// The partner is the feasible neighbor of highest weight, ties going to
// the lowest id: a total order, so the choice does not depend on the
// order touched is scanned in.
func matchRound(g *hypergraph.Graph, opts Options, r *rand.Rand) []int {
	n := g.NumCells()
	match := make([]int, n)
	for i := range match {
		match[i] = i
	}
	order := r.Perm(n)
	taken := make([]bool, n)
	weight := make([]float64, n)
	var touched []hypergraph.CellID
	// visited[net] = ui+1 once cell ui scored the net: a cell with
	// several pins on one net counts the net once.
	visited := make([]int32, g.NumNets())
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
	return match
}

// contract builds the coarse hypergraph induced by the matching. Nets
// fully inside one cluster vanish; surviving nets keep their external
// kind. Coarse cells use full dependence (replication runs at the fine
// level only).
func contract(g *hypergraph.Graph, match []int) (*hypergraph.Graph, [][]hypergraph.CellID, error) {
	n := g.NumCells()
	clusterOf := make([]int32, n)
	memberBuf := make([]hypergraph.CellID, 0, n)
	var membersList [][]hypergraph.CellID
	for i := 0; i < n; i++ {
		if match[i] >= i { // representative: the smaller index of a pair
			id := int32(len(membersList))
			start := len(memberBuf)
			clusterOf[i] = id
			memberBuf = append(memberBuf, hypergraph.CellID(i))
			if match[i] != i {
				clusterOf[match[i]] = id
				memberBuf = append(memberBuf, hypergraph.CellID(match[i]))
			}
			membersList = append(membersList, memberBuf[start:len(memberBuf):len(memberBuf)])
		}
	}

	// Survey nets: the first cluster touching each net, whether a second
	// one does, and the cluster driving it (-1 = external).
	m := g.NumNets()
	first := make([]int32, m)
	shared := make([]bool, m)
	driver := make([]int32, m)
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
	for ci := range g.Cells {
		cl := clusterOf[ci]
		c := &g.Cells[ci]
		for _, net := range c.Outputs {
			touch(net, cl)
			driver[net] = cl
		}
		for _, net := range c.Inputs {
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
	b := hypergraph.NewBuilderSized(g.Name+"~", len(membersList), surviving)
	netID := make([]hypergraph.NetID, m)
	for ni := range g.Nets {
		netID[ni] = hypergraph.NilNet
		if !shared[ni] && g.Nets[ni].Ext == hypergraph.Internal {
			continue // fully internal to one cluster
		}
		switch g.Nets[ni].Ext {
		case hypergraph.ExtIn:
			netID[ni] = b.InputNet(g.Nets[ni].Name)
		case hypergraph.ExtOut:
			netID[ni] = b.OutputNet(g.Nets[ni].Name)
		default:
			netID[ni] = b.Net(g.Nets[ni].Name)
		}
	}
	// seenIn/seenOut[id] = cl+1 once cluster cl listed coarse net id.
	seenIn := make([]int32, surviving)
	seenOut := make([]int32, surviving)
	var inputs, outputs []hypergraph.NetID
	for cl, ms := range membersList {
		stamp := int32(cl + 1)
		inputs, outputs = inputs[:0], outputs[:0]
		area, dffs := 0, 0
		for _, mi := range ms {
			c := &g.Cells[mi]
			area += c.Area
			dffs += c.DFFs
			for _, net := range c.Outputs {
				if id := netID[net]; id != hypergraph.NilNet && seenOut[id] != stamp {
					seenOut[id] = stamp
					outputs = append(outputs, id)
				}
			}
			for _, net := range c.Inputs {
				if net == hypergraph.NilNet {
					continue
				}
				id := netID[net]
				if id == hypergraph.NilNet || seenIn[id] == stamp || driver[net] == int32(cl) {
					continue // internal, duplicate, or driven by this cluster
				}
				seenIn[id] = stamp
				inputs = append(inputs, id)
			}
		}
		if len(outputs) == 0 {
			// Every output net is consumed only inside the cluster (an
			// isolated pair feeding each other); a cell needs an output.
			return nil, nil, fmt.Errorf("cluster: cluster %d of %q has no surviving outputs", cl, g.Name)
		}
		b.AddCell(hypergraph.CellSpec{
			Name:    "k" + strconv.Itoa(cl),
			Inputs:  inputs,
			Outputs: outputs,
			Area:    area,
			DFFs:    dffs,
		})
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return coarse, membersList, nil
}

// sortCells is a test helper ordering member lists deterministically.
func (c *Clustering) sortCells() {
	for _, ms := range c.Members {
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	}
}
