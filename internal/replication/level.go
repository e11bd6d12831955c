package replication

import (
	"fmt"
	"slices"

	"fpgapart/internal/hypergraph"
)

// A level of the multilevel V-cycle is a State with no graph: a
// contraction (package cluster) writes its cells and nets straight
// into the static tables, and the V-cycle resets and refines it like
// any other state. StartLevel empties the tables, AddLevelNet and
// AddLevelCell append the nets and then the cells, and FinishLevel lays
// the level out under a new layout. A level cell drives its output
// nets and reads its input nets with full dependence, every output
// depending on every input, so a level offers no replication: ψ is 0
// and PrepareSplitGains is never needed. Source and SourceNet are the
// identity. Every array keeps its capacity, so rebuilding a level no
// larger than an earlier one allocates nothing.

// StartLevel empties the state to build a V-cycle level of cells cells
// and nets nets in place, dropping the graph, the partition and the
// Stats.
func (s *State) StartLevel(cells, nets int) {
	s.g, s.view, s.layout = nil, false, 0
	s.stats = Stats{}
	s.lastTouched = s.lastTouched[:0]
	s.dropPartition()
	s.src = slices.Grow(s.src[:0], cells)
	s.srcOut = slices.Grow(s.srcOut[:0], cells)
	s.cellArea = slices.Grow(s.cellArea[:0], cells)
	s.all = slices.Grow(s.all[:0], cells)
	s.psi = slices.Grow(s.psi[:0], cells)
	s.outOff = append(slices.Grow(s.outOff[:0], cells+1), 0)
	s.inOff = append(slices.Grow(s.inOff[:0], cells+1), 0)
	s.outNet, s.inNet, s.inCol = s.outNet[:0], s.inNet[:0], s.inCol[:0]
	s.isExt = slices.Grow(s.isExt[:0], nets)
	s.netSrc = slices.Grow(s.netSrc[:0], nets)
	s.totalArea, s.numExt = 0, 0
}

// AddLevelNet appends a net to a level under construction, a terminal
// when ext is set.
func (s *State) AddLevelNet(ext bool) {
	s.netSrc = append(s.netSrc, hypergraph.NetID(len(s.isExt)))
	s.isExt = append(s.isExt, ext)
	if ext {
		s.numExt++
	}
}

// AddLevelCell appends a cell of the given area to a level under
// construction, once its nets are added: it drives the nets outs, in
// output order, and reads the nets ins, each with full dependence. It
// checks what validating a graph would check of the cell: a positive
// area, between one and MaxOutputs outputs, and every pin on an added
// net. On an error the cell is not added.
func (s *State) AddLevelCell(area int, ins, outs []hypergraph.NetID) error {
	c := len(s.src)
	mo := len(outs)
	if area < 1 {
		return fmt.Errorf("replication: level cell #%d has non-positive area %d", c, area)
	}
	if mo == 0 {
		return fmt.Errorf("replication: level cell #%d has no outputs", c)
	}
	if mo > MaxOutputs {
		return fmt.Errorf("replication: level cell #%d has %d outputs, max %d", c, mo, MaxOutputs)
	}
	m := hypergraph.NetID(len(s.isExt))
	for _, pins := range [2][]hypergraph.NetID{outs, ins} {
		for _, n := range pins {
			if n < 0 || n >= m {
				return fmt.Errorf("replication: level cell #%d has a pin on net %d of %d", c, n, m)
			}
		}
	}
	all := uint32(1)<<uint(mo) - 1
	s.src = append(s.src, hypergraph.CellID(c))
	s.srcOut = append(s.srcOut, all)
	s.all = append(s.all, all)
	s.cellArea = append(s.cellArea, int32(area))
	s.totalArea += area
	// Every input feeds every output, so none is exclusive to one (Eq. 4).
	s.psi = append(s.psi, 0)
	s.outNet = append(s.outNet, outs...)
	s.outOff = append(s.outOff, int32(len(s.outNet)))
	s.inNet = append(s.inNet, ins...)
	for range ins {
		s.inCol = append(s.inCol, all)
	}
	s.inOff = append(s.inOff, int32(len(s.inNet)))
	return nil
}

// FinishLevel lays out the level built since StartLevel: the adjacency,
// the gain bound and the split tables, under a new layout. The
// partition is left unset: call Reset before reading it.
func (s *State) FinishLevel() { s.derive() }
