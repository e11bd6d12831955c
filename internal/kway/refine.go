package kway

import (
	"fmt"
	"strings"

	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// Refine improves a finished k-way solution by re-bipartitioning pairs
// of parts that share cut nets (a Sanchis-style pairwise sweep over
// the multi-way partition). The pair's cells are re-extracted from the
// source circuit, the current split (including functional replication)
// is reconstructed as the starting state, and an FM run with both
// devices' utilization windows as bounds searches for a lower-terminal
// split. A change is accepted only when both parts stay feasible on
// their devices and the pair's total terminal demand drops.
//
// It returns the number of accepted pair improvements.
func Refine(g *hypergraph.Graph, res *Result, opts Options) (int, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	if opts.Board != nil {
		// The pairwise sweep optimizes the flat terminal objective and
		// re-materializes parts without re-checking board routing or
		// re-scoring the hop-weighted interconnect, so board-backed
		// runs skip it: the search's lexicographic fold already ranked
		// solutions by topology cost.
		return 0, nil
	}
	accepted := 0
	for pass := 0; pass < 2; pass++ {
		improvedThisPass := false
		for i := 0; i < len(res.Parts); i++ {
			for j := i + 1; j < len(res.Parts); j++ {
				ok, err := refinePair(g, res, i, j, opts)
				if err != nil {
					return accepted, err
				}
				if ok {
					accepted++
					improvedThisPass = true
				}
			}
		}
		if !improvedThisPass {
			break
		}
	}
	if accepted > 0 {
		// Rebuild the summary rows; the search's fold statistics still
		// describe this result.
		rebuilt := assemble(g, res.Parts)
		rebuilt.SourceCells, rebuilt.FoldStats = res.SourceCells, res.FoldStats
		*res = rebuilt
		if opts.Verify {
			if err := res.Verify(g); err != nil {
				return accepted, &VerificationError{Stage: "refine", Err: err}
			}
		}
	}
	return accepted, nil
}

// refinePair attempts one pair; returns true when an improvement was
// applied.
func refinePair(g *hypergraph.Graph, res *Result, i, j int, opts Options) (bool, error) {
	pi, pj := &res.Parts[i], &res.Parts[j]
	if !sharesNet(pi.Graph, pj.Graph) {
		return false, nil
	}
	union, assign, ok, err := extractPair(g, pi.Graph, pj.Graph)
	if err != nil || !ok {
		return false, err
	}
	st, err := replication.NewState(union.sub, assign)
	if err != nil {
		return false, err
	}
	for _, rm := range union.replicas {
		if _, err := st.Apply(rm); err != nil {
			return false, fmt.Errorf("kway: refine: reconstructing replication: %w", err)
		}
	}
	before := st.Terminals(0) + st.Terminals(1)
	cfg := fm.Config{
		MinArea:       [2]int{pi.Device.MinCLBs(), pj.Device.MinCLBs()},
		MaxArea:       [2]int{pi.Device.MaxCLBs(), pj.Device.MaxCLBs()},
		Threshold:     opts.threshold,
		RefineWorkers: opts.RefineWorkers,
		Seed:          opts.Seed + int64(i)*31 + int64(j),
	}
	for b := 0; b < 2; b++ {
		if a := st.Area(replication.Block(b)); a < cfg.MinArea[b] || a > cfg.MaxArea[b] {
			return false, nil // current split already outside a window; leave it
		}
	}
	if _, err := fm.Run(st, cfg); err != nil {
		return false, nil // bounds too tight for this engine run; keep as is
	}
	t0, t1 := st.Terminals(0), st.Terminals(1)
	if t0 > pi.Device.IOBs || t1 > pj.Device.IOBs || t0+t1 >= before {
		return false, nil
	}
	// Materialize the improved split back into the two parts.
	cut := func(n hypergraph.NetID) bool { return st.CutNet(n) }
	a, err := union.sub.Subcircuit(pi.Graph.Name, st.InstanceSpecs(0), cut)
	if err != nil {
		return false, nil
	}
	b, err := union.sub.Subcircuit(pj.Graph.Name, st.InstanceSpecs(1), cut)
	if err != nil {
		return false, nil
	}
	pi.Graph, pi.Replicas = a, countReplicas(a)
	pj.Graph, pj.Replicas = b, countReplicas(b)
	return true, nil
}

func sharesNet(a, b *hypergraph.Graph) bool {
	names := make(map[string]bool, a.NumNets())
	for ni := range a.Nets {
		names[a.Nets[ni].Name] = true
	}
	for ni := range b.Nets {
		if names[b.Nets[ni].Name] {
			return true
		}
	}
	return false
}

type pairExtraction struct {
	sub      *hypergraph.Graph
	replicas []replication.Move
}

// extractPair rebuilds the union of two parts from the source circuit.
// ok is false when a cell of the pair is split against a third part
// (its replication cannot be reconstructed locally).
func extractPair(g *hypergraph.Graph, a, b *hypergraph.Graph) (pairExtraction, []replication.Block, bool, error) {
	srcID := make(map[string]hypergraph.CellID, g.NumCells())
	for ci := range g.Cells {
		srcID[g.Cells[ci].Name] = hypergraph.CellID(ci)
	}
	// Which side drives which output? Match by output net name.
	type ownership struct {
		mask [2]uint32
	}
	own := make(map[hypergraph.CellID]*ownership)
	collect := func(part *hypergraph.Graph, side int) error {
		for ci := range part.Cells {
			base := baseNameOf(part.Cells[ci].Name)
			src, okc := srcID[base]
			if !okc {
				return fmt.Errorf("kway: refine: unknown cell %q", part.Cells[ci].Name)
			}
			o := own[src]
			if o == nil {
				o = &ownership{}
				own[src] = o
			}
			for _, outNet := range part.Cells[ci].Outputs {
				name := part.Nets[outNet].Name
				for pin, srcNet := range g.Cells[src].Outputs {
					if g.Nets[srcNet].Name == name {
						o.mask[side] |= 1 << uint(pin)
					}
				}
			}
		}
		return nil
	}
	if err := collect(a, 0); err != nil {
		return pairExtraction{}, nil, false, err
	}
	if err := collect(b, 1); err != nil {
		return pairExtraction{}, nil, false, err
	}
	// Every output of every member cell must be owned within the pair;
	// otherwise a copy lives in a third part.
	for src, o := range own {
		allMask := uint32(1)<<uint(len(g.Cells[src].Outputs)) - 1
		if o.mask[0]|o.mask[1] != allMask || o.mask[0]&o.mask[1] != 0 {
			return pairExtraction{}, nil, false, nil
		}
	}
	// Build the union subgraph: full cells; nets external when the
	// source marks them or a third party uses them.
	member := make(map[hypergraph.CellID]bool, len(own))
	specs := make([]hypergraph.InstanceSpec, 0, len(own))
	for ci := range g.Cells {
		src := hypergraph.CellID(ci)
		if _, okc := own[src]; okc {
			member[src] = true
			specs = append(specs, hypergraph.InstanceSpec{Cell: src})
		}
	}
	external := func(n hypergraph.NetID) bool {
		for _, cn := range g.Nets[n].Conns {
			if !member[cn.Cell] {
				return true
			}
		}
		return false
	}
	sub, err := g.Subcircuit(a.Name+"+"+b.Name, specs, external)
	if err != nil {
		return pairExtraction{}, nil, false, err
	}
	// Map union cells back to source ids (Subcircuit keeps names).
	assign := make([]replication.Block, sub.NumCells())
	var replicas []replication.Move
	for ci := range sub.Cells {
		src := srcID[sub.Cells[ci].Name]
		o := own[src]
		switch {
		case o.mask[1] == 0:
			assign[ci] = 0
		case o.mask[0] == 0:
			assign[ci] = 1
		default:
			// Split cell: home it where output 0 lives and replicate
			// the complement to the other side.
			if o.mask[0]&1 != 0 {
				assign[ci] = 0
				replicas = append(replicas, replication.Move{
					Cell: hypergraph.CellID(ci), Kind: replication.Replicate, Carry: o.mask[1],
				})
			} else {
				assign[ci] = 1
				replicas = append(replicas, replication.Move{
					Cell: hypergraph.CellID(ci), Kind: replication.Replicate, Carry: o.mask[0],
				})
			}
		}
	}
	return pairExtraction{sub: sub, replicas: replicas}, assign, true, nil
}

func baseNameOf(name string) string {
	for strings.HasSuffix(name, "$r") {
		name = strings.TrimSuffix(name, "$r")
	}
	return name
}
