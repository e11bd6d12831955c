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
//     static effect on each net, tabled once per graph
//     (PrepareSplitGains);
//   - Terminals(b) is an O(1) counter updated per changed net;
//   - TouchedCells and Splits are allocation-free, backed by CSR
//     adjacency and precomputed split tables built once per graph.
//
// Reset rebinds the dynamic state to a fresh assignment of the same
// graph without reallocating, so carve retries reuse every per-net and
// per-cell array. Rebind moves a state to another graph, reusing the
// capacity of every array, so a worker's next carve on a new remainder
// reuses them too.
package replication

import (
	"fmt"
	"math/bits"
	"slices"

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

// netConn is one entry of the net→cell CSR: a connected cell and its
// static active-connection count on the net.
type netConn struct {
	cell hypergraph.CellID
	k    int32
}

type trailEntry struct {
	cell hypergraph.CellID
	own  [2]uint32
	home Block
	repl bool
}

// State is a bipartition of a hypergraph with functional replication.
type State struct {
	g      *hypergraph.Graph
	extPin bool // external nets carry a virtual conn in block 1

	// Static, graph-derived structures (built once in buildStatic and
	// shared across Reset calls).
	all    []uint32   // per cell: mask of all outputs
	col    [][]uint32 // per cell, per input pin: outputs depending on it
	colDat []uint32   // backing storage for col
	psi    []int      // per cell: replication potential ψ (Eq. 4)
	// CSR adjacency between cells and their *active* nets: for each
	// cell, the distinct incident nets with at least one potentially
	// active pin, in first-pin order (outputs, then inputs). Entry e
	// lists the cell's active pins on its net as
	// pinMask[pinOff[e]:pinOff[e+1]]: a pin is active in block b iff
	// its mask meets the cell's ownership mask there (its own output
	// bit for an output, the dependency column for an input). So k, the
	// number of active connections the cell contributes to the net when
	// unreplicated, is pinOff[e+1]−pinOff[e] (see entryK). Dependency-
	// free input pins are floating in every configuration and are
	// excluded.
	adjOff  []int32
	adjNet  []hypergraph.NetID
	pinOff  []int32  // per entry, plus a closing total
	pinMask []uint32 // per active pin, grouped by entry
	// Inverse CSR: for each net, the distinct cells with k > 0,
	// interleaved with k so the commit sweep streams one array.
	netOff []int32
	netAdj []netConn
	// Precomputed candidate carry masks per cell (see Splits).
	splitOff  []int32
	splitMask []uint32
	// Per-split effects on each net, built lazily by PrepareSplitGains
	// (splitReady) once per graph: a multi-output cell's rows span
	// splitFlags[splitFlagOff[c]:splitFlagOff[c+1]], one row per
	// adjacency entry, one splitLeaves|splitJoins byte per split of
	// Splits(c).
	splitFlagOff []int
	splitFlags   []uint8
	splitReady   bool
	isExt        []bool // per net: external (dense copy of Net.Ext != Internal)
	maxDeg       int    // max distinct active nets over any cell (gain bound)

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
// last Rebind. Counters are cumulative across Reset/ResetPinned —
// observers that need per-phase figures snapshot before and after and
// subtract.
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
	// at most one per graph the state is bound to.
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
	s.stats = Stats{}
	s.lastTouched = s.lastTouched[:0]
	if err := s.buildStatic(); err != nil {
		return err
	}
	return s.ResetPinned(assign, pinExternal)
}

// buildStatic derives every graph-only structure: output masks,
// dependency columns, ψ, the cell↔net CSR adjacency with static
// connection counts, and the candidate split tables.
func (s *State) buildStatic() error {
	g := s.g
	n := len(g.Cells)
	m := len(g.Nets)
	s.all = slices.Grow(s.all[:0], n)[:n]
	s.col = slices.Grow(s.col[:0], n)[:n]
	s.psi = slices.Grow(s.psi[:0], n)[:n]
	totalIn, totalPins := 0, 0
	for ci := range g.Cells {
		totalIn += len(g.Cells[ci].Inputs)
		totalPins += g.Cells[ci].NumPins()
	}
	s.colDat = slices.Grow(s.colDat[:0], totalIn)[:totalIn]
	clear(s.colDat)
	colNext := 0
	for ci := range g.Cells {
		c := &g.Cells[ci]
		mo := len(c.Outputs)
		if mo > MaxOutputs {
			return fmt.Errorf("replication: cell %q has %d outputs, max %d", c.Name, mo, MaxOutputs)
		}
		if mo == 0 {
			return fmt.Errorf("replication: cell %q has no outputs", c.Name)
		}
		s.all[ci] = uint32(1)<<uint(mo) - 1
		s.psi[ci] = c.ReplicationPotential()
		cols := s.colDat[colNext : colNext+len(c.Inputs) : colNext+len(c.Inputs)]
		colNext += len(c.Inputs)
		// Transpose the dependency rows into per-input columns, visiting
		// only each row's set bits, a word at a time.
		for i := 0; i < mo; i++ {
			for w := range bitset.Words(len(c.Inputs)) {
				for x := c.Dep[i].Word(w); x != 0; x &= x - 1 {
					cols[w*64+bits.TrailingZeros64(x)] |= 1 << uint(i)
				}
			}
		}
		s.col[ci] = cols
	}

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
	for ci := range g.Cells {
		c := &g.Cells[ci]
		cols := s.col[ci]
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
		for _, nid := range c.Outputs {
			visit(nid)
		}
		for j, nid := range c.Inputs {
			if nid != hypergraph.NilNet && cols[j] != 0 {
				visit(nid)
			}
		}
		// Turn the counts into end offsets, then place the pins last to
		// first, decrementing: each offset comes to rest at its entry's
		// start with the entry's pins in pin order.
		for e := start; e < int32(len(s.adjNet)); e++ {
			pins += s.pinOff[e]
			s.pinOff[e] = pins
		}
		for j := len(c.Inputs) - 1; j >= 0; j-- {
			if nid := c.Inputs[j]; nid != hypergraph.NilNet && cols[j] != 0 {
				e := pos[nid]
				s.pinOff[e]--
				s.pinMask[s.pinOff[e]] = cols[j]
			}
		}
		for i := len(c.Outputs) - 1; i >= 0; i-- {
			e := pos[c.Outputs[i]]
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
			s.netAdj[fill[nid]] = netConn{cell: hypergraph.CellID(ci), k: s.entryK(e)}
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
	for ci := range g.Cells {
		totalSplits += numSplits(len(g.Cells[ci].Outputs))
	}
	s.splitMask = slices.Grow(s.splitMask[:0], totalSplits)
	for ci := range g.Cells {
		s.splitMask = appendSplits(s.splitMask, len(g.Cells[ci].Outputs), s.all[ci])
		s.splitOff[ci+1] = int32(len(s.splitMask))
	}
	s.splitReady = false

	s.isExt = slices.Grow(s.isExt[:0], m)[:m]
	for ni := range g.Nets {
		s.isExt[ni] = g.Nets[ni].Ext != hypergraph.Internal
	}
	s.touchStamp = slices.Grow(s.touchStamp[:0], n)[:n]
	clear(s.touchStamp)
	s.touchEpoch = 0
	return nil
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

// Reset reinitializes the partition to a fresh replication-free
// assignment, keeping the external-pin mode and reusing every
// allocated per-net/per-cell array. The undo trail is discarded.
func (s *State) Reset(assign []Block) error {
	return s.ResetPinned(assign, s.extPin)
}

// ResetPinned is Reset with an explicit external-pin mode (see
// NewStatePinned).
func (s *State) ResetPinned(assign []Block, pinExternal bool) error {
	g := s.g
	n := len(g.Cells)
	if len(assign) != n {
		return fmt.Errorf("replication: assignment length %d, want %d cells", len(assign), n)
	}
	for ci, b := range assign {
		if b > 1 {
			return fmt.Errorf("replication: cell %q assigned to block %d", g.Cells[ci].Name, b)
		}
	}
	s.extPin = pinExternal
	s.own = slices.Grow(s.own[:0], n)[:n]
	s.home = slices.Grow(s.home[:0], n)[:n]
	s.repl = slices.Grow(s.repl[:0], n)[:n]
	s.gainS = slices.Grow(s.gainS[:0], n)[:n]
	s.cnt = slices.Grow(s.cnt[:0], len(g.Nets))[:len(g.Nets)]
	clear(s.cnt)
	s.trail = s.trail[:0]
	s.cut = 0
	s.area = [2]int{}
	s.term = [2]int{}
	if pinExternal {
		for ni := range g.Nets {
			if g.Nets[ni].Ext != hypergraph.Internal {
				s.cnt[ni][1]++
			}
		}
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		b := assign[ci]
		s.home[ci] = b
		s.repl[ci] = false
		s.own[ci] = [2]uint32{}
		s.own[ci][b] = s.all[ci]
		s.area[b] += c.Area
		// Account active connections: all outputs, and inputs adjacent
		// to at least one output (a dependency-free input pin is
		// floating by the functional rule even before replication).
		for e := s.adjOff[ci]; e < s.adjOff[ci+1]; e++ {
			s.cnt[s.adjNet[e]][b] += s.entryK(e)
		}
	}
	for ni := range g.Nets {
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

// Graph returns the underlying hypergraph.
func (s *State) Graph() *hypergraph.Graph { return s.g }

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

// Psi returns the cell's replication potential ψ (Eq. 4), cached.
func (s *State) Psi(c hypergraph.CellID) int { return s.psi[c] }

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
	return len(s.g.Cells[c].Outputs) > 1 && s.psi[c] >= t
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

// CellsIn returns the number of cell copies active in block b.
func (s *State) CellsIn(b Block) int {
	n := 0
	for ci := range s.own {
		if s.own[ci][b] != 0 {
			n++
		}
	}
	return n
}

// inputActive reports whether input pin j of cell c is connected in
// block b under ownership mask m.
func (s *State) inputActive(c hypergraph.CellID, j int, m uint32) bool {
	return m&s.col[c][j] != 0
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
	cell := &s.g.Cells[c]
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
	for pi, n := range cell.Outputs {
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
	for pi, n := range cell.Inputs {
		if n == hypergraph.NilNet {
			continue
		}
		colMask := s.col[c][pi]
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

// PrepareSplitGains builds the table SplitGains reads, once per graph:
// until the next Rebind, later calls return at once. Building it
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
	a := s.g.Cells[c].Area
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
			cc := nc.cell
			if rec && s.touchStamp[cc] != s.touchEpoch {
				s.touchStamp[cc] = s.touchEpoch
				s.lastTouched = append(s.lastTouched, cc)
			}
			if cc == c || s.repl[cc] {
				continue
			}
			if s.home[cc] == from {
				g := upF
				if cf-k == nc.k {
					g++
				}
				s.gainS[cc] += g
			} else {
				g := downT
				if ct == nc.k {
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
			cc := nc.cell
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
				s.gainS[cc] += phi(n0, n1, nc.k) - phi(c0, c1, nc.k)
			} else {
				s.gainS[cc] += phi(n1, n0, nc.k) - phi(c1, c0, nc.k)
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
	for ni := range s.g.Nets {
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
			if s.touchStamp[nc.cell] != epoch {
				s.touchStamp[nc.cell] = epoch
				buf = append(buf, nc.cell)
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

// InstanceSpecs lists the cell copies active in block b in the form
// hypergraph.Subcircuit consumes. Replica copies (a replicated cell's
// copy outside its home block) carry the Replica flag and get a "$r"
// name suffix to keep names unique.
func (s *State) InstanceSpecs(b Block) []hypergraph.InstanceSpec {
	specs, _ := s.InstanceSpecsInto(b, nil, nil)
	return specs
}

// InstanceSpecsInto is InstanceSpecs building the list in specs and
// the partial output sets in outs, reallocating either only when its
// capacity is short. It returns both buffers for reuse; the specs
// alias outs.
func (s *State) InstanceSpecsInto(b Block, specs []hypergraph.InstanceSpec, outs []int) ([]hypergraph.InstanceSpec, []int) {
	n, nOut := 0, 0
	for ci := range s.own {
		if mask := s.own[ci][b]; mask != 0 {
			n++
			if mask != s.all[ci] {
				nOut += bits.OnesCount32(mask)
			}
		}
	}
	specs = slices.Grow(specs[:0], n)
	outs = slices.Grow(outs[:0], nOut)
	for ci := range s.own {
		mask := s.own[ci][b]
		if mask == 0 {
			continue
		}
		spec := hypergraph.InstanceSpec{Cell: hypergraph.CellID(ci)}
		if mask != s.all[ci] {
			lo := len(outs)
			for m := mask; m != 0; m &= m - 1 {
				outs = append(outs, bits.TrailingZeros32(m))
			}
			spec.Outputs = outs[lo:len(outs):len(outs)]
		}
		if s.repl[ci] && b != s.home[ci] {
			spec.Rename = s.g.Cells[ci].Name + "$r"
			spec.Replica = true
		}
		specs = append(specs, spec)
	}
	return specs, outs
}

// CheckInvariants recomputes every derived quantity from scratch and
// compares; used by tests and property checks. Beyond the original
// count/cut/area checks it cross-validates the incrementally
// maintained terminal counters and single-move gains against
// independent recomputation.
func (s *State) CheckInvariants() error {
	cnt := make([][2]int32, len(s.g.Nets))
	if s.extPin {
		for ni := range s.g.Nets {
			if s.g.Nets[ni].Ext != hypergraph.Internal {
				cnt[ni][1]++
			}
		}
	}
	var area [2]int
	for ci := range s.g.Cells {
		c := &s.g.Cells[ci]
		own := s.own[ci]
		if own[0]&own[1] != 0 {
			return fmt.Errorf("cell %q owned in both blocks: %b/%b", c.Name, own[0], own[1])
		}
		if own[0]|own[1] != s.all[ci] {
			return fmt.Errorf("cell %q ownership incomplete: %b|%b != %b", c.Name, own[0], own[1], s.all[ci])
		}
		if s.repl[ci] != (own[0] != 0 && own[1] != 0) {
			return fmt.Errorf("cell %q replication flag inconsistent", c.Name)
		}
		if !s.repl[ci] && own[s.home[ci]] == 0 {
			return fmt.Errorf("cell %q home block owns nothing", c.Name)
		}
		for b := Block(0); b < 2; b++ {
			if own[b] != 0 {
				area[b] += c.Area
			}
			for pi := range c.Outputs {
				if own[b]&(1<<uint(pi)) != 0 {
					cnt[c.Outputs[pi]][b]++
				}
			}
			for pi, n := range c.Inputs {
				if n == hypergraph.NilNet {
					continue
				}
				if own[b]&s.col[ci][pi] != 0 {
					cnt[n][b]++
				}
			}
		}
	}
	cut := 0
	for ni := range s.g.Nets {
		if cnt[ni] != s.cnt[ni] {
			return fmt.Errorf("net %q counts %v, cached %v", s.g.Nets[ni].Name, cnt[ni], s.cnt[ni])
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
	for ci := range s.g.Cells {
		c := hypergraph.CellID(ci)
		if s.repl[c] {
			continue
		}
		want, err := s.Gain(Move{Cell: c, Kind: SingleMove})
		if err != nil {
			return fmt.Errorf("cell %q: single gain: %v", s.g.Cells[ci].Name, err)
		}
		if int(s.gainS[c]) != want {
			return fmt.Errorf("cell %q: maintained single gain %d, semantic %d",
				s.g.Cells[ci].Name, s.gainS[c], want)
		}
	}
	return nil
}
