// Package replication implements bipartitioning state with functional
// replication and the unified gain model of Kužnar et al. (DAC'94,
// Sections II–III).
//
// A cell may exist as a single copy in one block, or — after a
// Replicate move — as two copies, one per block, each owning a disjoint
// non-empty subset of the cell's outputs. Per the functional
// replication rule, a copy carrying output set S connects exactly the
// output nets of S and the input nets adjacent to S; all other pins of
// that copy are left floating. The cut set is the set of nets with
// active connections in both blocks.
//
// State supports three mutations (single move, functional replication,
// unreplication), O(pins) exact gain evaluation for each, and full
// undo, which is what the FM-style engine in package fm needs for its
// best-prefix rollback.
//
// The hot-path quantities are maintained incrementally (the classic
// Fiduccia–Mattheyses result that a pass runs in time linear in pins):
//
//   - SingleGain(c), the single-move gain of every unreplicated cell,
//     is updated in commit from the criticality transitions of exactly
//     the nets whose connection counts changed — no recomputation over
//     untouched neighbors;
//   - SplitGains(c) evaluates every replication split of an
//     unreplicated cell in one walk over its nets, from each split's
//     static effect on each net, tabled once per layout
//     (PrepareSplitGains);
//   - Terminals(b) is an O(1) counter updated per changed net;
//   - TouchedCells and Splits are allocation-free, backed by CSR
//     adjacency and precomputed split tables built once per layout.
//
// Reset rebinds the dynamic state to a fresh assignment of the same
// cells without reallocating, so carve retries reuse every per-net and
// per-cell array. Rebind moves a state to another graph, reusing the
// capacity of every array. Retarget narrows a state to its block 1 in
// place, the remainder a k-way carve recurses on, with the cell and
// net numbering the remainder graph would have. A worker's carve chain
// therefore builds no graph: Rebind binds the source once per attempt.
package replication

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"fpgapart/internal/bitset"
	"fpgapart/internal/hypergraph"
)

// Block identifies one side of a bipartition.
type Block uint8

// Other returns the opposite block.
func (b Block) Other() Block { return 1 - b }

// MoveKind enumerates the mutations of Section III.
type MoveKind uint8

const (
	// SingleMove relocates an unreplicated cell to the other block.
	SingleMove MoveKind = iota
	// Replicate splits an unreplicated cell: a replica in the other
	// block takes over the outputs in Carry, the original keeps the
	// rest, and both copies prune inputs per the functional rule.
	Replicate
	// Unreplicate merges a replicated cell into block To.
	Unreplicate
)

func (k MoveKind) String() string {
	switch k {
	case SingleMove:
		return "move"
	case Replicate:
		return "replicate"
	case Unreplicate:
		return "unreplicate"
	}
	return fmt.Sprintf("MoveKind(%d)", uint8(k))
}

// Move is one candidate mutation.
type Move struct {
	Cell  hypergraph.CellID
	Kind  MoveKind
	Carry uint32 // Replicate: output mask taken by the replica
	To    Block  // Unreplicate: surviving block
}

func (m Move) String() string {
	switch m.Kind {
	case Replicate:
		return fmt.Sprintf("replicate(cell=%d carry=%b)", m.Cell, m.Carry)
	case Unreplicate:
		return fmt.Sprintf("unreplicate(cell=%d to=%d)", m.Cell, m.To)
	}
	return fmt.Sprintf("move(cell=%d)", m.Cell)
}

// MaxOutputs bounds the per-cell output count representable in the
// ownership masks.
const MaxOutputs = 32

// NetConn is one entry of the net→cell CSR: a connected cell and its
// static active-connection count on the net.
type NetConn struct {
	Cell hypergraph.CellID
	K    int32
}

type trailEntry struct {
	cell hypergraph.CellID
	own  [2]uint32
	home Block
	repl bool
}

// layouts numbers the cell and net sets states are laid out for (see
// State.Layout).
var layouts atomic.Uint64

// State is a bipartition of a hypergraph with functional replication.
// Its cells and nets are those of the graph Rebind bound it to, or,
// after Retarget, those of a remainder of that graph: a subset of its
// cells, some narrowed to part of their outputs, with the nets they
// keep. Cell and net ids are the state's own; Source and SourceNet map
// them to the graph's.
type State struct {
	g      *hypergraph.Graph
	view   bool // re-targeted since Rebind
	extPin bool // external nets carry a virtual conn in block 1

	// Static structures, derived from the cells' pins by derive and
	// shared across Reset calls.
	layout   uint64              // identifies the cell and net set (see Layout)
	src      []hypergraph.CellID // per cell: the cell of g it copies
	srcOut   []uint32            // per cell: g's outputs its output bits stand for, in order
	cellArea []int32
	all      []uint32 // per cell: mask of all outputs
	psi      []int    // per cell: replication potential ψ (Eq. 4)
	// Pins, per cell in pin order: its output nets, one per output bit,
	// and its input pins that feed some output, each with the mask of
	// the outputs depending on it (its dependency column). Dependency-
	// free and unconnected input pins are floating in every
	// configuration and are left out.
	outOff []int32
	outNet []hypergraph.NetID
	inOff  []int32
	inNet  []hypergraph.NetID
	inCol  []uint32
	// CSR adjacency between cells and their *active* nets: for each
	// cell, the distinct incident nets with at least one active pin, in
	// first-pin order (outputs, then inputs). Entry e lists the cell's
	// pins on its net as pinMask[pinOff[e]:pinOff[e+1]]: a pin is
	// active in block b iff its mask meets the cell's ownership mask
	// there (its own output bit for an output, the dependency column for
	// an input). So k, the number of active connections the cell
	// contributes to the net when unreplicated, is pinOff[e+1]−pinOff[e]
	// (see entryK).
	adjOff  []int32
	adjNet  []hypergraph.NetID
	pinOff  []int32  // per entry, plus a closing total
	pinMask []uint32 // per active pin, grouped by entry
	// Inverse CSR: for each net, the distinct cells with k > 0 in cell
	// order, interleaved with k so the commit sweep streams one array.
	netOff []int32
	netAdj []NetConn
	// Precomputed candidate carry masks per cell (see Splits).
	splitOff  []int32
	splitMask []uint32
	// Per-split effects on each net, built lazily by PrepareSplitGains
	// (splitReady) once per layout: a multi-output cell's rows span
	// splitFlags[splitFlagOff[c]:splitFlagOff[c+1]], one row per
	// adjacency entry, one splitLeaves|splitJoins byte per split of
	// Splits(c).
	splitFlagOff []int
	splitFlags   []uint8
	splitReady   bool
	isExt        []bool             // per net: a terminal (external in g, or cut by an earlier carve)
	netSrc       []hypergraph.NetID // per net: the net of g it stands for
	maxDeg       int                // max distinct active nets over any cell (gain bound)
	totalArea    int
	numExt       int
	// Retarget's spares for the per-net arrays it renumbers.
	extNext []bool
	srcNext []hypergraph.NetID

	// Dynamic partition state (reinitialized by Reset).
	own   [][2]uint32 // per cell: output mask active in each block
	home  []Block     // block of the original copy
	repl  []bool
	cnt   [][2]int32 // per net: active connections per block
	cut   int
	area  [2]int
	term  [2]int  // per block: incrementally maintained Terminals(b)
	gainS []int32 // per cell: maintained single-move gain (unreplicated cells)

	trail []trailEntry

	// scratch buffers for the delta accumulation of replication commits
	scratchNets  []hypergraph.NetID
	scratchDelta [][2]int32
	scratchMark  []int32 // per net: index+1 into scratchNets, 0 = absent

	// scratch for allocation-free TouchedCells / LastTouched
	touchStamp    []uint32
	touchEpoch    uint32
	lastTouched   []hypergraph.CellID
	recordTouched bool

	stats Stats
}

// Stats counts the work performed on a state since construction or the
// last Rebind or StartLevel. Counters are cumulative across Reset/ResetPinned and
// Retarget — observers that need per-phase figures snapshot before and
// after and subtract.
type Stats struct {
	// Moves counts successfully applied moves of any kind.
	Moves int64
	// Replicas counts applied Replicate moves (replica instances
	// created, before any unreplication or rollback).
	Replicas int64
	// Rollbacks counts moves rolled back, whether one at a time (Undo)
	// or wholesale (RestoreCheckpoint truncating the trail).
	Rollbacks int64
	// SplitTables counts the split-gain tables PrepareSplitGains built:
	// at most one per layout.
	SplitTables int64
}

// Stats returns the cumulative work counters.
func (s *State) Stats() Stats { return s.stats }

// Sub returns s - o field-wise: the work performed between two
// snapshots of the same state.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Moves:       s.Moves - o.Moves,
		Replicas:    s.Replicas - o.Replicas,
		Rollbacks:   s.Rollbacks - o.Rollbacks,
		SplitTables: s.SplitTables - o.SplitTables,
	}
}

// NewState builds the state for an initial replication-free assignment
// of every cell to a block. len(assign) must equal the cell count.
func NewState(g *hypergraph.Graph, assign []Block) (*State, error) {
	return NewStatePinned(g, assign, false)
}

// NewStatePinned is NewState with an optional virtual connection in
// block 1 on every external net. With pinning, a net counts as cut
// exactly when it demands an IOB in block 0, so CutSize == t_P0 and an
// FM run minimizes the carved block's terminal count directly — the
// objective the k-way partitioner's device feasibility check needs.
func NewStatePinned(g *hypergraph.Graph, assign []Block, pinExternal bool) (*State, error) {
	s := &State{}
	if err := s.Rebind(g, assign, pinExternal); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebind points the state at graph g with a fresh replication-free
// assignment, leaving it exactly as NewStatePinned(g, assign,
// pinExternal) builds it: Stats restart from zero. Every per-cell and
// per-net array keeps its capacity, so rebinding to a graph no larger
// than one the state held before allocates nothing. After an error the
// state must be rebound again before use.
func (s *State) Rebind(g *hypergraph.Graph, assign []Block, pinExternal bool) error {
	s.g = g
	s.view = false
	s.layout = 0 // until derive: a failed rebind leaves no usable layout
	s.stats = Stats{}
	s.lastTouched = s.lastTouched[:0]
	if err := s.readGraph(); err != nil {
		return err
	}
	s.derive()
	return s.ResetPinned(assign, pinExternal)
}

// readGraph takes the cells, their pins and the nets from g.
func (s *State) readGraph() error {
	g := s.g
	n, m := len(g.Cells), len(g.Nets)
	s.src = slices.Grow(s.src[:0], n)[:n]
	s.srcOut = slices.Grow(s.srcOut[:0], n)[:n]
	s.cellArea = slices.Grow(s.cellArea[:0], n)[:n]
	s.all = slices.Grow(s.all[:0], n)[:n]
	s.psi = slices.Grow(s.psi[:0], n)[:n]
	s.outOff = slices.Grow(s.outOff[:0], n+1)[:n+1]
	s.inOff = slices.Grow(s.inOff[:0], n+1)[:n+1]
	totalOut, totalIn := 0, 0
	for ci := range g.Cells {
		totalOut += len(g.Cells[ci].Outputs)
		totalIn += len(g.Cells[ci].Inputs)
	}
	s.outNet = slices.Grow(s.outNet[:0], totalOut)
	s.inNet = slices.Grow(s.inNet[:0], totalIn)
	s.inCol = slices.Grow(s.inCol[:0], totalIn)
	s.totalArea = 0
	for ci := range g.Cells {
		c := &g.Cells[ci]
		mo := len(c.Outputs)
		if mo > MaxOutputs {
			return fmt.Errorf("replication: cell %q has %d outputs, max %d", c.Name, mo, MaxOutputs)
		}
		if mo == 0 {
			return fmt.Errorf("replication: cell %q has no outputs", c.Name)
		}
		s.src[ci] = hypergraph.CellID(ci)
		s.all[ci] = uint32(1)<<uint(mo) - 1
		s.srcOut[ci] = s.all[ci]
		s.cellArea[ci] = int32(c.Area)
		s.totalArea += c.Area
		s.psi[ci] = c.ReplicationPotential()
		s.outOff[ci] = int32(len(s.outNet))
		s.outNet = append(s.outNet, c.Outputs...)
		s.inOff[ci] = int32(len(s.inNet))
		// Transpose the dependency rows into per-input columns, visiting
		// only each row's set bits, a word at a time.
		lo := len(s.inCol)
		s.inCol = s.inCol[:lo+len(c.Inputs)]
		cols := s.inCol[lo:]
		clear(cols)
		for i := 0; i < mo; i++ {
			for w := range bitset.Words(len(c.Inputs)) {
				for x := c.Dep[i].Word(w); x != 0; x &= x - 1 {
					cols[w*64+bits.TrailingZeros64(x)] |= 1 << uint(i)
				}
			}
		}
		// Keep the connected pins with a dependency, in pin order.
		k := lo
		for j, nid := range c.Inputs {
			if nid != hypergraph.NilNet && cols[j] != 0 {
				s.inCol[k] = cols[j]
				s.inNet = append(s.inNet, nid)
				k++
			}
		}
		s.inCol = s.inCol[:k]
	}
	s.outOff[n] = int32(len(s.outNet))
	s.inOff[n] = int32(len(s.inNet))
	s.isExt = slices.Grow(s.isExt[:0], m)[:m]
	s.netSrc = slices.Grow(s.netSrc[:0], m)[:m]
	s.numExt = 0
	for ni := range g.Nets {
		s.isExt[ni] = g.Nets[ni].Ext != hypergraph.Internal
		s.netSrc[ni] = hypergraph.NetID(ni)
		if s.isExt[ni] {
			s.numExt++
		}
	}
	return nil
}

// Retarget narrows the state to its block 1, the remainder a k-way
// carve recurses on, without building a graph: the cells with no copy
// in block 1 drop out, every net that was external or cut becomes a
// terminal, and a replicated cell keeps only the outputs its block-1
// copy owns, with the input pins, dependency columns, ψ and split
// candidates of those outputs under the functional-replication rule.
//
// The state then holds exactly what Rebind would build from the
// remainder graph hypergraph.Subcircuit extracts for block 1 (the
// block-1 instances in cell order, cut nets external), with the same
// cell and net numbering: cells keep their order, and nets are
// numbered by first encounter, per cell its inputs and then its
// outputs. Only the partition is left unset: call Reset before reading
// it. Stats and the external-pin mode carry over. The work is linear
// in the pins of the state before the call, and a warm state allocates
// nothing.
func (s *State) Retarget() {
	n, m := len(s.src), len(s.isExt)
	// Number the kept nets, marking each old net with its new id + 1.
	mark := slices.Grow(s.scratchMark[:0], m)[:m]
	nets := int32(0)
	number := func(nid hypergraph.NetID) {
		if mark[nid] == 0 {
			nets++
			mark[nid] = nets
		}
	}
	for c := 0; c < n; c++ {
		keep := s.own[c][1]
		if keep == 0 {
			continue
		}
		for i := s.inOff[c]; i < s.inOff[c+1]; i++ {
			if s.inCol[i]&keep != 0 {
				number(s.inNet[i])
			}
		}
		for k := keep; k != 0; k &= k - 1 {
			number(s.outNet[s.outOff[c]+int32(bits.TrailingZeros32(k))])
		}
	}
	s.extNext = slices.Grow(s.extNext[:0], int(nets))[:nets]
	s.srcNext = slices.Grow(s.srcNext[:0], int(nets))[:nets]
	numExt := 0
	for old, id := range mark {
		if id == 0 {
			continue
		}
		ext := s.isExt[old] || s.CutNet(hypergraph.NetID(old))
		s.extNext[id-1] = ext
		s.srcNext[id-1] = s.netSrc[old]
		if ext {
			numExt++
		}
	}

	// Compact the kept cells and their kept pins in place: a kept cell
	// or pin never moves up, and every read precedes the write that
	// could overwrite it.
	j, po, pi := 0, int32(0), int32(0)
	oLo, iLo := s.outOff[0], s.inOff[0]
	area := 0
	for c := 0; c < n; c++ {
		oHi, iHi := s.outOff[c+1], s.inOff[c+1]
		if keep := s.own[c][1]; keep != 0 {
			s.src[j] = s.src[c]
			s.cellArea[j] = s.cellArea[c]
			area += int(s.cellArea[c])
			s.srcOut[j] = deposit(keep, s.srcOut[c])
			mo := bits.OnesCount32(keep)
			psi := 0
			for k := keep; k != 0; k &= k - 1 {
				s.outNet[po] = hypergraph.NetID(mark[s.outNet[oLo+int32(bits.TrailingZeros32(k))]] - 1)
				po++
			}
			for i := iLo; i < iHi; i++ {
				if col := s.inCol[i] & keep; col != 0 {
					s.inNet[pi] = hypergraph.NetID(mark[s.inNet[i]] - 1)
					s.inCol[pi] = extract(col, keep)
					if bits.OnesCount32(s.inCol[pi]) == 1 {
						psi++
					}
					pi++
				}
			}
			switch {
			case keep == s.all[c]:
				s.psi[j] = s.psi[c]
			case mo > 1:
				s.psi[j] = psi
			default:
				s.psi[j] = 0
			}
			s.all[j] = uint32(1)<<uint(mo) - 1
			j++
			s.outOff[j], s.inOff[j] = po, pi
		}
		oLo, iLo = oHi, iHi
	}
	clear(mark)
	s.scratchMark = mark
	s.src, s.srcOut, s.cellArea, s.all, s.psi = s.src[:j], s.srcOut[:j], s.cellArea[:j], s.all[:j], s.psi[:j]
	s.outOff, s.inOff = s.outOff[:j+1], s.inOff[:j+1]
	s.outNet, s.inNet, s.inCol = s.outNet[:po], s.inNet[:pi], s.inCol[:pi]
	s.isExt, s.extNext = s.extNext, s.isExt
	s.netSrc, s.srcNext = s.srcNext, s.netSrc
	s.totalArea, s.numExt = area, numExt
	s.view = true
	s.derive()
	// The partition refers to the old numbering.
	s.dropPartition()
}

// dropPartition empties the partition, so that a read before the next
// Reset fails instead of returning stale values.
func (s *State) dropPartition() {
	s.own, s.home, s.repl, s.gainS, s.cnt = s.own[:0], s.home[:0], s.repl[:0], s.gainS[:0], s.cnt[:0]
	s.trail = s.trail[:0]
	s.cut, s.area, s.term = 0, [2]int{}, [2]int{}
}

// deposit spreads the low bits of m over the set bits of into: bit i
// of m lands on the i-th set bit of into.
func deposit(m, into uint32) uint32 {
	var r uint32
	for ; into != 0; into &= into - 1 {
		if m&1 != 0 {
			r |= into & -into
		}
		m >>= 1
	}
	return r
}

// extract gathers the bits of m at the set bits of from into the low
// bits of the result, in order: the inverse of deposit.
func extract(m, from uint32) uint32 {
	var r uint32
	for i := 0; from != 0; from &= from - 1 {
		if m&from&-from != 0 {
			r |= 1 << uint(i)
		}
		i++
	}
	return r
}

// derive builds every structure that follows from the cells' pins and
// the nets: the cell↔net CSR adjacency with static connection counts,
// the gain bound and the candidate split tables. It gives the state a
// new layout.
func (s *State) derive() {
	n, m := len(s.src), len(s.isExt)
	s.layout = layouts.Add(1)
	totalPins := len(s.outNet) + len(s.inNet)

	// Cell -> net adjacency with per-pin activation masks. The per-net
	// scratch array (zero at rest) serves first as pos, each net's
	// latest entry in adjNet: an entry at or after the scanned cell's
	// start is that cell's own.
	s.adjOff = slices.Grow(s.adjOff[:0], n+1)[:n+1]
	s.adjOff[0] = 0
	s.adjNet = slices.Grow(s.adjNet[:0], totalPins)
	s.pinOff = slices.Grow(s.pinOff[:0], totalPins+1)
	s.pinMask = slices.Grow(s.pinMask[:0], totalPins)[:totalPins]
	pos := slices.Grow(s.scratchMark[:0], m)[:m]
	for i := range pos {
		pos[i] = -1
	}
	pins := int32(0)
	for ci := 0; ci < n; ci++ {
		outs := s.outNet[s.outOff[ci]:s.outOff[ci+1]]
		ins := s.inNet[s.inOff[ci]:s.inOff[ci+1]]
		cols := s.inCol[s.inOff[ci]:s.inOff[ci+1]]
		start := int32(len(s.adjNet))
		// First sweep: the cell's distinct active nets in first-pin
		// order, pinOff[e] counting each entry's pins.
		visit := func(nid hypergraph.NetID) {
			if p := pos[nid]; p >= start {
				s.pinOff[p]++
				return
			}
			pos[nid] = int32(len(s.adjNet))
			s.adjNet = append(s.adjNet, nid)
			s.pinOff = append(s.pinOff, 1)
		}
		for _, nid := range outs {
			visit(nid)
		}
		for _, nid := range ins {
			visit(nid)
		}
		// Turn the counts into end offsets, then place the pins last to
		// first, decrementing: each offset comes to rest at its entry's
		// start with the entry's pins in pin order.
		for e := start; e < int32(len(s.adjNet)); e++ {
			pins += s.pinOff[e]
			s.pinOff[e] = pins
		}
		for j := len(ins) - 1; j >= 0; j-- {
			e := pos[ins[j]]
			s.pinOff[e]--
			s.pinMask[s.pinOff[e]] = cols[j]
		}
		for i := len(outs) - 1; i >= 0; i-- {
			e := pos[outs[i]]
			s.pinOff[e]--
			s.pinMask[s.pinOff[e]] = 1 << uint(i)
		}
		s.adjOff[ci+1] = int32(len(s.adjNet))
	}
	s.pinOff = append(s.pinOff, pins)
	s.pinMask = s.pinMask[:pins]
	s.maxDeg = 1
	for ci := 0; ci < n; ci++ {
		if d := int(s.adjOff[ci+1] - s.adjOff[ci]); d > s.maxDeg {
			s.maxDeg = d
		}
	}

	// Inverse: net -> cells with k > 0. The scratch array now holds each
	// net's fill position.
	s.netOff = slices.Grow(s.netOff[:0], m+1)[:m+1]
	clear(s.netOff)
	for _, nid := range s.adjNet {
		s.netOff[nid+1]++
	}
	for i := 0; i < m; i++ {
		s.netOff[i+1] += s.netOff[i]
	}
	s.netAdj = slices.Grow(s.netAdj[:0], len(s.adjNet))[:len(s.adjNet)]
	fill := pos
	copy(fill, s.netOff[:m])
	for ci := 0; ci < n; ci++ {
		for e := s.adjOff[ci]; e < s.adjOff[ci+1]; e++ {
			nid := s.adjNet[e]
			s.netAdj[fill[nid]] = NetConn{Cell: hypergraph.CellID(ci), K: s.entryK(e)}
			fill[nid]++
		}
	}
	// Hand the scratch array back to the delta accumulation, zeroed.
	clear(fill)
	s.scratchMark = fill

	// Candidate split tables.
	s.splitOff = slices.Grow(s.splitOff[:0], n+1)[:n+1]
	s.splitOff[0] = 0
	totalSplits := 0
	for ci := 0; ci < n; ci++ {
		totalSplits += numSplits(s.NumOutputs(hypergraph.CellID(ci)))
	}
	s.splitMask = slices.Grow(s.splitMask[:0], totalSplits)
	for ci := 0; ci < n; ci++ {
		s.splitMask = appendSplits(s.splitMask, s.NumOutputs(hypergraph.CellID(ci)), s.all[ci])
		s.splitOff[ci+1] = int32(len(s.splitMask))
	}
	s.splitReady = false

	s.touchStamp = slices.Grow(s.touchStamp[:0], n)[:n]
	clear(s.touchStamp)
	s.touchEpoch = 0
}

// MaxSplits bounds len(Splits(c)) for any cell: 2·MaxOutputs masks
// above four outputs, at most 14 below.
const MaxSplits = 2 * MaxOutputs

// numSplits is the number of candidate carry masks appendSplits
// produces for a cell with mo outputs.
func numSplits(mo int) int {
	switch {
	case mo <= 1:
		return 0
	case mo <= 4:
		return 1<<uint(mo) - 2
	}
	return 2 * mo
}

// appendSplits appends the candidate carry masks for a cell with mo
// outputs: every proper non-empty output subset for cells with up to
// four outputs, singletons and their complements otherwise. Above four
// outputs the 2·mo masks are distinct (a singleton has one bit, a
// complement mo-1 ≥ 4), so no deduplication is needed.
func appendSplits(dst []uint32, mo int, all uint32) []uint32 {
	if mo <= 1 {
		return dst
	}
	if mo <= 4 {
		for mask := uint32(1); mask < all; mask++ {
			dst = append(dst, mask)
		}
		return dst
	}
	for i := 0; i < mo; i++ {
		dst = append(dst, 1<<uint(i), all&^(1<<uint(i)))
	}
	return dst
}

// ResetPinned is Reset with an explicit external-pin mode (see
// NewStatePinned).
func (s *State) ResetPinned(assign []Block, pinExternal bool) error {
	n, m := len(s.src), len(s.isExt)
	if len(assign) != n {
		return fmt.Errorf("replication: assignment length %d, want %d cells", len(assign), n)
	}
	for ci, b := range assign {
		if b > 1 {
			return fmt.Errorf("replication: cell %q assigned to block %d", s.cellName(hypergraph.CellID(ci)), b)
		}
	}
	s.extPin = pinExternal
	s.own = slices.Grow(s.own[:0], n)[:n]
	s.home = slices.Grow(s.home[:0], n)[:n]
	s.repl = slices.Grow(s.repl[:0], n)[:n]
	s.gainS = slices.Grow(s.gainS[:0], n)[:n]
	s.cnt = slices.Grow(s.cnt[:0], m)[:m]
	clear(s.cnt)
	s.trail = s.trail[:0]
	s.cut = 0
	s.area = [2]int{}
	s.term = [2]int{}
	if pinExternal {
		for ni, ext := range s.isExt {
			if ext {
				s.cnt[ni][1]++
			}
		}
	}
	for ci := 0; ci < n; ci++ {
		b := assign[ci]
		s.home[ci] = b
		s.repl[ci] = false
		s.own[ci] = [2]uint32{}
		s.own[ci][b] = s.all[ci]
		s.area[b] += int(s.cellArea[ci])
		// Account active connections: all outputs, and inputs adjacent
		// to at least one output (a dependency-free input pin is
		// floating by the functional rule even before replication).
		for e := s.adjOff[ci]; e < s.adjOff[ci+1]; e++ {
			s.cnt[s.adjNet[e]][b] += s.entryK(e)
		}
	}
	for ni := 0; ni < m; ni++ {
		if s.cnt[ni][0] > 0 && s.cnt[ni][1] > 0 {
			s.cut++
		}
		for b := Block(0); b < 2; b++ {
			if s.termStatus(hypergraph.NetID(ni), b, s.cnt[ni][0], s.cnt[ni][1]) {
				s.term[b]++
			}
		}
	}
	for ci := 0; ci < n; ci++ {
		s.gainS[ci] = s.computeSingleGain(hypergraph.CellID(ci))
	}
	return nil
}

// Layout identifies the state's cell and net set: Rebind and Retarget
// give it a new value, unique within the process, and Reset keeps it.
// Engines key their per-layout buffers on it.
func (s *State) Layout() uint64 { return s.layout }

// NumCells returns the number of cells.
func (s *State) NumCells() int { return len(s.src) }

// NumNets returns the number of nets.
func (s *State) NumNets() int { return len(s.isExt) }

// TotalArea returns the summed area of the cells.
func (s *State) TotalArea() int { return s.totalArea }

// NumExternal returns the number of external nets: the terminals the
// cells need when they sit on one device.
func (s *State) NumExternal() int { return s.numExt }

// IsExternal reports whether net n is external.
func (s *State) IsExternal(n hypergraph.NetID) bool { return s.isExt[n] }

// CellArea returns the area of cell c.
func (s *State) CellArea(c hypergraph.CellID) int { return int(s.cellArea[c]) }

// NumOutputs returns the number of outputs of cell c.
func (s *State) NumOutputs(c hypergraph.CellID) int { return int(s.outOff[c+1] - s.outOff[c]) }

// AllOutputs returns the mask of all of cell c's outputs.
func (s *State) AllOutputs(c hypergraph.CellID) uint32 { return s.all[c] }

// Source returns the cell of the graph Rebind bound the state to that
// cell c copies.
func (s *State) Source(c hypergraph.CellID) hypergraph.CellID { return s.src[c] }

// SourceOutputs maps a mask over cell c's outputs to the mask of the
// outputs of Source(c) they are.
func (s *State) SourceOutputs(c hypergraph.CellID, mask uint32) uint32 {
	return deposit(mask, s.srcOut[c])
}

// SourceNet returns the net of the graph Rebind bound the state to
// that net n is.
func (s *State) SourceNet(n hypergraph.NetID) hypergraph.NetID { return s.netSrc[n] }

// CellNets returns cell c's distinct active nets in first-pin order
// (outputs, then inputs). The slice is shared; callers must not modify
// it.
func (s *State) CellNets(c hypergraph.CellID) []hypergraph.NetID {
	return s.adjNet[s.adjOff[c]:s.adjOff[c+1]]
}

// NetConns returns the cells with active pins on net n, in cell order,
// each with its count of active pins there. The slice is shared;
// callers must not modify it.
func (s *State) NetConns(n hypergraph.NetID) []NetConn {
	return s.netAdj[s.netOff[n]:s.netOff[n+1]]
}

// cellName names cell c for error messages: by the graph's name for
// it, or by its index on a V-cycle level, which has no graph.
func (s *State) cellName(c hypergraph.CellID) string {
	if s.g == nil {
		return fmt.Sprintf("#%d", c)
	}
	return s.g.Cells[s.src[c]].Name
}

// netName names net n for error messages, as cellName names cells.
func (s *State) netName(n hypergraph.NetID) string {
	if s.g == nil {
		return fmt.Sprintf("#%d", n)
	}
	return s.g.Nets[s.netSrc[n]].Name
}

// CutSize returns the number of nets with active connections in both
// blocks.
func (s *State) CutSize() int { return s.cut }

// Area returns the total cell area active in block b (replicated cells
// count in both blocks).
func (s *State) Area(b Block) int { return s.area[b] }

// Home returns the block of the cell's original copy.
func (s *State) Home(c hypergraph.CellID) Block { return s.home[c] }

// IsReplicated reports whether the cell currently has copies in both
// blocks.
func (s *State) IsReplicated(c hypergraph.CellID) bool { return s.repl[c] }

// OutputsIn returns the mask of the cell's outputs produced in block b.
func (s *State) OutputsIn(c hypergraph.CellID, b Block) uint32 { return s.own[c][b] }

// MaxCellDegree returns the maximum number of distinct active nets
// incident to any single cell — a tight bound on |gain| for every move
// kind, since a move can only change the cut status of the mover's own
// active nets.
func (s *State) MaxCellDegree() int { return s.maxDeg }

// SingleGain returns the gain of moving the (unreplicated) cell to the
// other block — identical to Gain(Move{Cell: c, Kind: SingleMove}).
// It reads the value Apply and Undo maintain, O(1): their commit sweep
// already visits every neighbor of a changed net, and patches its gain
// there. The value is meaningless while the cell is replicated. Like
// Gain, it only reads the state, so both FM engines' candidate scans,
// the parallel one's concurrent proposals included, read it directly.
func (s *State) SingleGain(c hypergraph.CellID) int { return int(s.gainS[c]) }

// CanReplicate reports eligibility for functional replication at
// threshold T: multi-output and ψ ≥ T (Eq. 6; T = 0 admits ψ = 0
// multi-output cells, single-output cells never qualify).
func (s *State) CanReplicate(c hypergraph.CellID, t int) bool {
	return s.NumOutputs(c) > 1 && s.psi[c] >= t
}

// ReplicatedCount returns the number of currently replicated cells.
func (s *State) ReplicatedCount() int {
	n := 0
	for _, r := range s.repl {
		if r {
			n++
		}
	}
	return n
}

// newOwn computes the ownership masks after applying m, validating the
// move against the current state.
func (s *State) newOwn(m Move) ([2]uint32, error) {
	c := m.Cell
	if int(c) < 0 || int(c) >= len(s.own) {
		return [2]uint32{}, fmt.Errorf("replication: invalid cell %d", c)
	}
	all := s.all[c]
	switch m.Kind {
	case SingleMove:
		if s.repl[c] {
			return [2]uint32{}, fmt.Errorf("replication: %v: cell is replicated", m)
		}
		b := s.home[c]
		var nw [2]uint32
		nw[b.Other()] = all
		return nw, nil
	case Replicate:
		if s.repl[c] {
			return [2]uint32{}, fmt.Errorf("replication: %v: cell is already replicated", m)
		}
		if m.Carry == 0 || m.Carry == all || m.Carry&^all != 0 {
			return [2]uint32{}, fmt.Errorf("replication: %v: carry mask must be a proper non-empty subset of %b", m, all)
		}
		b := s.home[c]
		var nw [2]uint32
		nw[b] = all &^ m.Carry
		nw[b.Other()] = m.Carry
		return nw, nil
	case Unreplicate:
		if !s.repl[c] {
			return [2]uint32{}, fmt.Errorf("replication: %v: cell is not replicated", m)
		}
		if m.To > 1 {
			return [2]uint32{}, fmt.Errorf("replication: %v: invalid block", m)
		}
		var nw [2]uint32
		nw[m.To] = all
		return nw, nil
	}
	return [2]uint32{}, fmt.Errorf("replication: unknown move kind %d", m.Kind)
}

// accumulateDeltas records, for each distinct net incident to cell c,
// the change in active connection counts when ownership goes from old
// to nw, listing the nets in the order of their first flipped pin.
// Results land in the scratch buffers; callers must call resetScratch
// when done.
func (s *State) accumulateDeltas(c hypergraph.CellID, old, nw [2]uint32) {
	add := func(n hypergraph.NetID, b Block, d int32) {
		if d == 0 {
			return
		}
		idx := s.scratchMark[n]
		if idx == 0 {
			s.scratchNets = append(s.scratchNets, n)
			s.scratchDelta = append(s.scratchDelta, [2]int32{})
			idx = int32(len(s.scratchNets))
			s.scratchMark[n] = idx
		}
		s.scratchDelta[idx-1][b] += d
	}
	for pi, n := range s.outNet[s.outOff[c]:s.outOff[c+1]] {
		bit := uint32(1) << uint(pi)
		for b := Block(0); b < 2; b++ {
			was := old[b]&bit != 0
			is := nw[b]&bit != 0
			if was != is {
				if is {
					add(n, b, 1)
				} else {
					add(n, b, -1)
				}
			}
		}
	}
	for i := s.inOff[c]; i < s.inOff[c+1]; i++ {
		n, colMask := s.inNet[i], s.inCol[i]
		for b := Block(0); b < 2; b++ {
			was := old[b]&colMask != 0
			is := nw[b]&colMask != 0
			if was != is {
				if is {
					add(n, b, 1)
				} else {
					add(n, b, -1)
				}
			}
		}
	}
}

func (s *State) resetScratch() {
	for _, n := range s.scratchNets {
		s.scratchMark[n] = 0
	}
	s.scratchNets = s.scratchNets[:0]
	s.scratchDelta = s.scratchDelta[:0]
}

// entryK returns the static active-connection count of adjacency entry
// e: the connections its cell contributes to its net when unreplicated.
func (s *State) entryK(e int32) int32 { return s.pinOff[e+1] - s.pinOff[e] }

// entryDelta returns the change in adjacency entry e's active
// connections per block when its cell's ownership goes from old to nw.
func (s *State) entryDelta(e int32, old, nw [2]uint32) (d [2]int32) {
	for _, mask := range s.pinMask[s.pinOff[e]:s.pinOff[e+1]] {
		for b := 0; b < 2; b++ {
			if was, is := old[b]&mask != 0, nw[b]&mask != 0; was != is {
				if is {
					d[b]++
				} else {
					d[b]--
				}
			}
		}
	}
	return d
}

// Gain returns the exact objective reduction of applying m: positive
// gains shrink the cut. Gain only reads the state, so any number of
// goroutines may call it while nobody mutates the state.
func (s *State) Gain(m Move) (int, error) {
	nw, err := s.newOwn(m)
	if err != nil {
		return 0, err
	}
	old := s.own[m.Cell]
	gain := 0
	// The adjacency lists each net once per cell, so each entry's delta
	// is the net's whole delta.
	for e := s.adjOff[m.Cell]; e < s.adjOff[m.Cell+1]; e++ {
		d := s.entryDelta(e, old, nw)
		if d == ([2]int32{}) {
			continue
		}
		n := s.adjNet[e]
		c0, c1 := s.cnt[n][0], s.cnt[n][1]
		n0, n1 := c0+d[0], c1+d[1]
		wasCut := c0 > 0 && c1 > 0
		isCut := n0 > 0 && n1 > 0
		if wasCut && !isCut {
			gain++
		} else if !wasCut && isCut {
			gain--
		}
	}
	return gain, nil
}

// Split-table flags: what a split does to one of its cell's nets.
const (
	splitLeaves uint8 = 1 << iota // the home copy keeps no pin on the net
	splitJoins                    // the replica has a pin on the net
)

// PrepareSplitGains builds the table SplitGains reads, once per
// layout: until the next Rebind or Retarget, later calls return at
// once. Building it
// mutates the state, so an engine calls it before any concurrent reader
// starts, and only for runs that offer replication moves: the table
// grows with entries × splits, and the V-cycle's coarse levels, which
// run plain FM, hold cells with up to 24 outputs.
//
// An unreplicated cell's connection delta under a split is static: its
// home copy loses the pins no kept output needs, the replica gains the
// pins a carried output needs. Both objectives depend on a net's counts
// only through whether each side is active, and the home side, holding
// at least the cell's k pins, stays active unless the cell held every
// home-side connection and the split takes all k of them. So the table
// reduces each (loss, gain) delta to two flags, one byte per adjacency
// entry and split.
func (s *State) PrepareSplitGains() {
	if s.splitReady {
		return
	}
	s.splitReady = true
	s.stats.SplitTables++
	n := len(s.all)
	s.splitFlagOff = slices.Grow(s.splitFlagOff[:0], n+1)[:n+1]
	total := 0
	for ci := 0; ci < n; ci++ {
		s.splitFlagOff[ci] = total
		total += int(s.adjOff[ci+1]-s.adjOff[ci]) * int(s.splitOff[ci+1]-s.splitOff[ci])
	}
	s.splitFlagOff[n] = total
	s.splitFlags = slices.Grow(s.splitFlags[:0], total)[:total]
	for ci := 0; ci < n; ci++ {
		splits := s.splitMask[s.splitOff[ci]:s.splitOff[ci+1]]
		if len(splits) == 0 {
			continue
		}
		row := s.splitFlags[s.splitFlagOff[ci]:s.splitFlagOff[ci+1]]
		for e := s.adjOff[ci]; e < s.adjOff[ci+1]; e++ {
			pins := s.pinMask[s.pinOff[e]:s.pinOff[e+1]]
			for i, carry := range splits {
				keep := s.all[ci] &^ carry
				f := splitLeaves
				for _, m := range pins {
					if m&keep != 0 {
						f &^= splitLeaves
					}
					if m&carry != 0 {
						f |= splitJoins
					}
				}
				row[i] = f
			}
			row = row[len(splits):]
		}
	}
}

// SplitGains returns, in dst[:len(Splits(c))], the gain of replicating
// the unreplicated cell c with each carry mask of Splits(c), in that
// order: dst[i] == Gain(Move{Cell: c, Kind: Replicate, Carry:
// Splits(c)[i]}). It walks the cell's adjacency once, reading each
// net's counts once, and takes each split's effect on the net from the
// table PrepareSplitGains built; dst must hold MaxSplits values. Like
// Gain it only reads the state.
func (s *State) SplitGains(c hypergraph.CellID, dst []int) []int {
	ns := int(s.splitOff[c+1] - s.splitOff[c])
	dst = dst[:ns]
	clear(dst)
	if ns == 0 {
		return dst
	}
	if !s.splitReady {
		panic("replication: SplitGains before PrepareSplitGains")
	}
	h := s.home[c]
	rows := s.splitFlags[s.splitFlagOff[c]:s.splitFlagOff[c+1]]
	for e := s.adjOff[c]; e < s.adjOff[c+1]; e++ {
		row := rows[:ns:ns]
		rows = rows[ns:]
		n := s.adjNet[e]
		cnt := s.cnt[n]
		// A leaving split idles the home side only when the cell holds
		// every home-side connection.
		alone := cnt[h] == s.entryK(e)
		across := cnt[h.Other()] > 0
		switch {
		case across && alone: // cut: a leaving split uncuts it
			for i, f := range row {
				if f&splitLeaves != 0 {
					dst[i]++
				}
			}
		case !across: // uncut: a joining split cuts it unless it also idles the home side
			for i, f := range row {
				if f&splitJoins != 0 && (!alone || f&splitLeaves == 0) {
					dst[i]--
				}
			}
		}
	}
	return dst
}

// MustGain is Gain that panics on invalid moves, for engine internals
// that already validated candidates.
func (s *State) MustGain(m Move) int {
	g, err := s.Gain(m)
	if err != nil {
		panic(err)
	}
	return g
}

// Token marks a position in the mutation trail for Undo.
type Token int

// Mark returns a token for the current trail position.
func (s *State) Mark() Token { return Token(len(s.trail)) }

// Apply commits m and returns a token that undoes it (and anything
// after it) via Undo.
func (s *State) Apply(m Move) (Token, error) {
	nw, err := s.newOwn(m)
	if err != nil {
		return 0, err
	}
	tok := s.Mark()
	s.trail = append(s.trail, trailEntry{cell: m.Cell, own: s.own[m.Cell], home: s.home[m.Cell], repl: s.repl[m.Cell]})
	// Record the touched neighborhood as a free by-product of commit's
	// delta sweep (see LastTouched).
	s.bumpTouchEpoch()
	s.lastTouched = s.lastTouched[:0]
	s.touchStamp[m.Cell] = s.touchEpoch
	s.lastTouched = append(s.lastTouched, m.Cell)
	s.recordTouched = true
	s.commit(m.Cell, nw)
	s.recordTouched = false
	switch m.Kind {
	case SingleMove:
		s.home[m.Cell] = s.home[m.Cell].Other()
		// The reverse move undoes exactly the cut delta just applied,
		// so the mover's new single-move gain is the negation of its
		// (maintained, pre-move) value — no recomputation needed.
		s.gainS[m.Cell] = -s.gainS[m.Cell]
	case Replicate:
		s.repl[m.Cell] = true
	case Unreplicate:
		s.repl[m.Cell] = false
		s.home[m.Cell] = m.To
		s.gainS[m.Cell] = s.computeSingleGain(m.Cell)
	}
	s.stats.Moves++
	if m.Kind == Replicate {
		s.stats.Replicas++
	}
	return tok, nil
}

// phi is the contribution of one net to the single-move gain of a cell
// with k active connections on it, f of its home block's count and t of
// the other block's: +1 when the net is cut and the cell owns the whole
// from-side (moving uncuts it), −1 when the net is uncut and other
// from-side connections remain behind (moving cuts it).
func phi(f, t, k int32) int32 {
	if f > 0 && t > 0 {
		if f == k {
			return 1
		}
		return 0
	}
	if f > k {
		return -1
	}
	return 0
}

// computeSingleGain evaluates the single-move gain of an unreplicated
// cell from scratch — O(distinct nets of the cell). Used to (re)seed
// the maintained gainS after the cell's own ownership changes; steady-
// state neighbor updates happen incrementally in commit.
func (s *State) computeSingleGain(c hypergraph.CellID) int32 {
	h := s.home[c]
	g := int32(0)
	for e := s.adjOff[c]; e < s.adjOff[c+1]; e++ {
		n := s.adjNet[e]
		g += phi(s.cnt[n][h], s.cnt[n][h.Other()], s.entryK(e))
	}
	return g
}

// termStatus reports whether net n demands an IOB in block b under the
// given connection counts (see Terminals).
func (s *State) termStatus(n hypergraph.NetID, b Block, c0, c1 int32) bool {
	ext := s.isExt[n]
	here, other := c0, c1
	if b == 1 {
		here, other = c1, c0
	}
	if s.extPin && ext {
		if b == 1 {
			here--
		} else {
			other--
		}
	}
	return here > 0 && (ext || other > 0)
}

// commit switches cell c's ownership to nw, updating net counts, cut
// size, block areas, terminal counters and — incrementally, from the
// criticality transitions of the changed nets — the maintained
// single-move gains of every affected neighbor. The mover's own gain is
// reseeded by the caller (Apply/Undo) once its home/replication flags
// are final.
//
// The nets are committed in the order of their first flipped pin, which
// fixes the order of LastTouched. A whole-cell move (a single move or
// its undo) flips every active pin, so that order is the adjacency order
// and each entry's delta is (−k, +k) from the old block to the new one:
// it streams the adjacency. Replication moves leave some pins in place,
// so a net's first flipped pin can come after the pins of nets listed
// later in the adjacency; they accumulate their deltas in first-flip
// order.
func (s *State) commit(c hypergraph.CellID, nw [2]uint32) {
	old := s.own[c]
	switch {
	case old[1] == 0 && nw[0] == 0:
		s.commitWhole(c, 0)
	case old[0] == 0 && nw[1] == 0:
		s.commitWhole(c, 1)
	default:
		s.accumulateDeltas(c, old, nw)
		for i, n := range s.scratchNets {
			s.commitNet(c, n, s.scratchDelta[i])
		}
		s.resetScratch()
	}
	a := int(s.cellArea[c])
	for b := Block(0); b < 2; b++ {
		was := old[b] != 0
		is := nw[b] != 0
		switch {
		case is && !was:
			s.area[b] += a
		case was && !is:
			s.area[b] -= a
		}
	}
	s.own[c] = nw
}

// commitWhole commits the move of every active pin of cell c out of
// block from, net by net in adjacency order. Each net's delta is
// (−k, +k), which fixes what φ was and becomes for every unreplicated
// neighbor: a from-side neighbor with k' connections shares the from
// side with the mover, so φ rises by one when it is left alone there
// (f−k = k') and by one when the net was uncut; a to-side neighbor's φ
// falls by one when it held the whole to side (t = k') and by one when
// the net ends uncut (see phi).
func (s *State) commitWhole(c hypergraph.CellID, from Block) {
	to := from.Other()
	rec := s.recordTouched
	for e := s.adjOff[c]; e < s.adjOff[c+1]; e++ {
		n := s.adjNet[e]
		k := s.entryK(e)
		cf, ct := s.cnt[n][from], s.cnt[n][to]
		var d [2]int32
		d[from], d[to] = -k, k
		wasCut, isCut := s.setCounts(n, d)
		var upF, downT int32
		if !wasCut {
			upF = 1
		}
		if !isCut {
			downT = 1
		}
		for _, nc := range s.netAdj[s.netOff[n]:s.netOff[n+1]] {
			cc := nc.Cell
			if rec && s.touchStamp[cc] != s.touchEpoch {
				s.touchStamp[cc] = s.touchEpoch
				s.lastTouched = append(s.lastTouched, cc)
			}
			if cc == c || s.repl[cc] {
				continue
			}
			if s.home[cc] == from {
				g := upF
				if cf-k == nc.K {
					g++
				}
				s.gainS[cc] += g
			} else {
				g := downT
				if ct == nc.K {
					g++
				}
				s.gainS[cc] -= g
			}
		}
	}
}

// setCounts applies connection delta d to net n: counts, cut and
// terminal counters. It reports whether the net was and is cut.
func (s *State) setCounts(n hypergraph.NetID, d [2]int32) (wasCut, isCut bool) {
	c0, c1 := s.cnt[n][0], s.cnt[n][1]
	n0, n1 := c0+d[0], c1+d[1]
	s.cnt[n] = [2]int32{n0, n1}
	wasCut = c0 > 0 && c1 > 0
	isCut = n0 > 0 && n1 > 0
	if wasCut && !isCut {
		s.cut--
	} else if !wasCut && isCut {
		s.cut++
	}
	// Terminal-status transitions, inlined from termStatus with the
	// block-1 count pre-adjusted for the virtual pin connection.
	ext := s.isExt[n]
	var pin int32
	if s.extPin && ext {
		pin = 1
	}
	e1, m1 := c1-pin, n1-pin
	wasT0 := c0 > 0 && (ext || e1 > 0)
	isT0 := n0 > 0 && (ext || m1 > 0)
	wasT1 := e1 > 0 && (ext || c0 > 0)
	isT1 := m1 > 0 && (ext || n0 > 0)
	if wasT0 != isT0 {
		if isT0 {
			s.term[0]++
		} else {
			s.term[0]--
		}
	}
	if wasT1 != isT1 {
		if isT1 {
			s.term[1]++
		} else {
			s.term[1]--
		}
	}
	return wasCut, isCut
}

// commitNet applies mover c's connection delta d to net n: counts, cut,
// terminal counters, neighbor gains and the touched neighborhood.
func (s *State) commitNet(c hypergraph.CellID, n hypergraph.NetID, d [2]int32) {
	c0, c1 := s.cnt[n][0], s.cnt[n][1]
	n0, n1 := c0+d[0], c1+d[1]
	wasCut, isCut := s.setCounts(n, d)
	// Neighbor gain deltas. phi depends on t only through the cut
	// flag, so a block's cells can only see a delta when their own
	// side's count or the cut status changed.
	changed0 := c0 != n0 || wasCut != isCut
	changed1 := c1 != n1 || wasCut != isCut
	if changed0 || changed1 || s.recordTouched {
		for _, nc := range s.netAdj[s.netOff[n]:s.netOff[n+1]] {
			cc := nc.Cell
			if s.recordTouched && s.touchStamp[cc] != s.touchEpoch {
				s.touchStamp[cc] = s.touchEpoch
				s.lastTouched = append(s.lastTouched, cc)
			}
			if cc == c || s.repl[cc] {
				continue
			}
			h := s.home[cc]
			if h == 0 && !changed0 || h == 1 && !changed1 {
				continue
			}
			if h == 0 {
				s.gainS[cc] += phi(n0, n1, nc.K) - phi(c0, c1, nc.K)
			} else {
				s.gainS[cc] += phi(n1, n0, nc.K) - phi(c1, c0, nc.K)
			}
		}
	}
}

// Undo rolls the state back to the given token.
func (s *State) Undo(tok Token) error {
	if int(tok) < 0 || int(tok) > len(s.trail) {
		return fmt.Errorf("replication: invalid undo token %d (trail %d)", tok, len(s.trail))
	}
	s.stats.Rollbacks += int64(len(s.trail) - int(tok))
	for len(s.trail) > int(tok) {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		wasRepl := s.repl[e.cell]
		s.commit(e.cell, e.own)
		s.home[e.cell] = e.home
		s.repl[e.cell] = e.repl
		if !e.repl {
			if !wasRepl {
				// Reversing a single move: negate (see Apply).
				s.gainS[e.cell] = -s.gainS[e.cell]
			} else {
				// Reversing a replication: the cell was replicated, so
				// its maintained gain is stale — recompute.
				s.gainS[e.cell] = s.computeSingleGain(e.cell)
			}
		}
	}
	return nil
}

// Checkpoint is a reusable full snapshot of the dynamic partition
// state, for O(cells + nets) pass rollback: an FM pass that applies M
// moves and keeps only a prefix can restore the best point with flat
// array copies instead of per-move undo sweeps. Buffers are allocated
// on first save and reused.
type Checkpoint struct {
	valid    bool
	trailLen int
	cut      int
	area     [2]int
	term     [2]int
	own      [][2]uint32
	home     []Block
	repl     []bool
	cnt      [][2]int32
	gainS    []int32
}

// SaveCheckpoint snapshots the current state into cp.
func (s *State) SaveCheckpoint(cp *Checkpoint) {
	n, m := len(s.own), len(s.cnt)
	if cap(cp.own) < n {
		cp.own = make([][2]uint32, n)
		cp.home = make([]Block, n)
		cp.repl = make([]bool, n)
		cp.gainS = make([]int32, n)
	}
	if cap(cp.cnt) < m {
		cp.cnt = make([][2]int32, m)
	}
	cp.own, cp.home, cp.repl, cp.gainS = cp.own[:n], cp.home[:n], cp.repl[:n], cp.gainS[:n]
	cp.cnt = cp.cnt[:m]
	copy(cp.own, s.own)
	copy(cp.home, s.home)
	copy(cp.repl, s.repl)
	copy(cp.gainS, s.gainS)
	copy(cp.cnt, s.cnt)
	cp.trailLen = len(s.trail)
	cp.cut, cp.area, cp.term = s.cut, s.area, s.term
	cp.valid = true
}

// RestoreCheckpoint rolls the state back to a snapshot taken earlier on
// this same state. The trail is truncated to the snapshot point, so
// tokens issued after the save become invalid — equivalent to Undo of
// every later move, but in flat array copies.
func (s *State) RestoreCheckpoint(cp *Checkpoint) error {
	if !cp.valid {
		return fmt.Errorf("replication: restore from unsaved checkpoint")
	}
	if len(cp.own) != len(s.own) || len(cp.cnt) != len(s.cnt) {
		return fmt.Errorf("replication: checkpoint of %d cells/%d nets restored onto %d/%d",
			len(cp.own), len(cp.cnt), len(s.own), len(s.cnt))
	}
	if cp.trailLen > len(s.trail) {
		return fmt.Errorf("replication: checkpoint trail %d ahead of state trail %d", cp.trailLen, len(s.trail))
	}
	copy(s.own, cp.own)
	copy(s.home, cp.home)
	copy(s.repl, cp.repl)
	copy(s.gainS, cp.gainS)
	copy(s.cnt, cp.cnt)
	s.stats.Rollbacks += int64(len(s.trail) - cp.trailLen)
	s.trail = s.trail[:cp.trailLen]
	s.cut, s.area, s.term = cp.cut, cp.area, cp.term
	return nil
}

// Splits returns the candidate carry masks for functionally
// replicating cell c: every proper non-empty output subset for cells
// with up to four outputs, singletons and their complements otherwise.
// The returned slice is a precomputed shared table — callers must not
// modify it.
func (s *State) Splits(c hypergraph.CellID) []uint32 {
	lo, hi := s.splitOff[c], s.splitOff[c+1]
	if lo == hi {
		return nil
	}
	return s.splitMask[lo:hi:hi]
}

// Terminals returns t_Pb: the number of nets in block b that need an
// IOB — external nets touching the block plus cut nets. Virtual pin
// connections (NewStatePinned) are excluded from the touch counts.
// The counters are maintained incrementally per committed move, so
// this is O(1).
func (s *State) Terminals(b Block) int { return s.term[b] }

// terminalsSlow recomputes Terminals by scanning every net; retained
// as the independent ground truth for CheckInvariants.
func (s *State) terminalsSlow(b Block) int {
	t := 0
	for ni := range s.isExt {
		if s.termStatus(hypergraph.NetID(ni), b, s.cnt[ni][0], s.cnt[ni][1]) {
			t++
		}
	}
	return t
}

// CutNet reports whether net n is currently in the cut set.
func (s *State) CutNet(n hypergraph.NetID) bool {
	return s.cnt[n][0] > 0 && s.cnt[n][1] > 0
}

// TouchedCells returns the distinct cells with an active connection on
// any active net incident to cell c — the neighborhood whose candidate
// gains an engine must refresh after applying a move on c. The result
// includes c itself, first. The call is allocation-free for a buf with
// sufficient capacity.
func (s *State) TouchedCells(c hypergraph.CellID, buf []hypergraph.CellID) []hypergraph.CellID {
	buf = buf[:0]
	s.bumpTouchEpoch()
	epoch := s.touchEpoch
	s.touchStamp[c] = epoch
	buf = append(buf, c)
	for i := s.adjOff[c]; i < s.adjOff[c+1]; i++ {
		n := s.adjNet[i]
		for _, nc := range s.netAdj[s.netOff[n]:s.netOff[n+1]] {
			if s.touchStamp[nc.Cell] != epoch {
				s.touchStamp[nc.Cell] = epoch
				buf = append(buf, nc.Cell)
			}
		}
	}
	return buf
}

func (s *State) bumpTouchEpoch() {
	s.touchEpoch++
	if s.touchEpoch == 0 { // wrapped: invalidate all stamps
		for i := range s.touchStamp {
			s.touchStamp[i] = 0
		}
		s.touchEpoch = 1
	}
}

// LastTouched returns the touched neighborhood of the most recent
// Apply — the same cell set TouchedCells(mover) produces for a single
// move (mover first), collected for free during the commit delta
// sweep. For replication moves it may omit cells on nets whose
// connection counts did not change; use TouchedCells when those
// matter. The slice is valid until the next Apply and must not be
// modified.
func (s *State) LastTouched() []hypergraph.CellID { return s.lastTouched }

// InstanceSpecs lists the cell copies active in block b as instances
// of the bound graph in the form hypergraph.Subcircuit consumes.
// Replica copies (a replicated cell's copy outside its home block)
// carry the Replica flag and get a "$r" name suffix to keep names
// unique.
func (s *State) InstanceSpecs(b Block) []hypergraph.InstanceSpec {
	var specs []hypergraph.InstanceSpec
	for ci := range s.own {
		c := hypergraph.CellID(ci)
		mask := s.own[ci][b]
		if mask == 0 {
			continue
		}
		spec := hypergraph.InstanceSpec{Cell: s.src[c]}
		if full := s.g.Cells[s.src[c]].Outputs; s.SourceOutputs(c, mask) != uint32(1)<<uint(len(full))-1 {
			for m := s.SourceOutputs(c, mask); m != 0; m &= m - 1 {
				spec.Outputs = append(spec.Outputs, bits.TrailingZeros32(m))
			}
		}
		if s.repl[ci] && b != s.home[ci] {
			spec.Rename = s.cellName(c) + "$r"
			spec.Replica = true
		}
		specs = append(specs, spec)
	}
	return specs
}

// CheckInvariants recomputes every derived quantity from scratch and
// compares; used by tests and property checks. Beyond the original
// count/cut/area checks it cross-validates the incrementally
// maintained terminal counters and single-move gains against
// independent recomputation.
func (s *State) CheckInvariants() error {
	cnt := make([][2]int32, len(s.isExt))
	if s.extPin {
		for ni, ext := range s.isExt {
			if ext {
				cnt[ni][1]++
			}
		}
	}
	var area [2]int
	for ci := range s.src {
		c := hypergraph.CellID(ci)
		name := s.cellName(c)
		own := s.own[ci]
		if own[0]&own[1] != 0 {
			return fmt.Errorf("cell %q owned in both blocks: %b/%b", name, own[0], own[1])
		}
		if own[0]|own[1] != s.all[ci] {
			return fmt.Errorf("cell %q ownership incomplete: %b|%b != %b", name, own[0], own[1], s.all[ci])
		}
		if s.repl[ci] != (own[0] != 0 && own[1] != 0) {
			return fmt.Errorf("cell %q replication flag inconsistent", name)
		}
		if !s.repl[ci] && own[s.home[ci]] == 0 {
			return fmt.Errorf("cell %q home block owns nothing", name)
		}
		for b := Block(0); b < 2; b++ {
			if own[b] != 0 {
				area[b] += int(s.cellArea[ci])
			}
			for pi, n := range s.outNet[s.outOff[ci]:s.outOff[ci+1]] {
				if own[b]&(1<<uint(pi)) != 0 {
					cnt[n][b]++
				}
			}
			for i := s.inOff[ci]; i < s.inOff[ci+1]; i++ {
				if own[b]&s.inCol[i] != 0 {
					cnt[s.inNet[i]][b]++
				}
			}
		}
	}
	cut := 0
	for ni := range s.isExt {
		if cnt[ni] != s.cnt[ni] {
			return fmt.Errorf("net %q counts %v, cached %v", s.netName(hypergraph.NetID(ni)), cnt[ni], s.cnt[ni])
		}
		if cnt[ni][0] > 0 && cnt[ni][1] > 0 {
			cut++
		}
	}
	if cut != s.cut {
		return fmt.Errorf("cut %d, cached %d", cut, s.cut)
	}
	if area != s.area {
		return fmt.Errorf("area %v, cached %v", area, s.area)
	}
	for b := Block(0); b < 2; b++ {
		if slow := s.terminalsSlow(b); slow != s.term[b] {
			return fmt.Errorf("terminals(%d) %d, cached %d", b, slow, s.term[b])
		}
	}
	for ci := range s.src {
		c := hypergraph.CellID(ci)
		if s.repl[c] {
			continue
		}
		want, err := s.Gain(Move{Cell: c, Kind: SingleMove})
		if err != nil {
			return fmt.Errorf("cell %q: single gain: %v", s.cellName(c), err)
		}
		if int(s.gainS[c]) != want {
			return fmt.Errorf("cell %q: maintained single gain %d, semantic %d",
				s.cellName(c), s.gainS[c], want)
		}
	}
	return nil
}
