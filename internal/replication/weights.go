package replication

import (
	"fmt"
	"slices"

	"fpgapart/internal/hypergraph"
)

// NetWeights generalizes the unit-cut objective to a per-net cost
// table over the net's block-activity pattern. A net contributes
//
//	0        when inactive in both blocks,
//	Alone[b] when active only in block b,
//	Both     when active in both blocks (cut).
//
// The classic objective is the special case {Alone: [0,0], Both: 1}
// summed over nets; SetNetWeights(nil) selects it with zero overhead.
//
// The k-way engine derives these weights from a board topology: for a
// carve splitting the remainder between slot s0 (the part being carved)
// and slot s1 (the rest), Alone[0] is the marginal Steiner cost of
// extending the net's already-placed span to s0, Alone[1] the cost of
// extending to s1, and Both the cost of extending to s0 and s1. An FM
// run minimizing the weighted sum then minimizes the hop-weighted
// interconnect of the final placement instead of the flat cut.
type NetWeights struct {
	Alone [2]int32
	Both  int32
}

// costAt evaluates one net's contribution under weights w for
// connection counts (c0, c1).
func costAt(w *NetWeights, c0, c1 int32) int32 {
	if c0 > 0 {
		if c1 > 0 {
			return w.Both
		}
		return w.Alone[0]
	}
	if c1 > 0 {
		return w.Alone[1]
	}
	return 0
}

// phiW is the weighted counterpart of phi: the contribution of one net
// to the single-move gain of an unreplicated cell with home block h
// and k active connections on the net, given counts (c0, c1). The
// cell's side holds at least its own k connections, so the before-cost
// never hits the inactive row; the after-cost switches to the opposite
// Alone entry exactly when the cell carried the whole from-side.
// With w = {Alone: [0,0], Both: 1} this reduces to phi.
func phiW(w *NetWeights, c0, c1, k int32, h Block) int32 {
	if h == 0 {
		before := w.Alone[0]
		if c1 > 0 {
			before = w.Both
		}
		after := w.Alone[1]
		if c0 > k {
			after = w.Both
		}
		return before - after
	}
	before := w.Alone[1]
	if c0 > 0 {
		before = w.Both
	}
	after := w.Alone[0]
	if c1 > k {
		after = w.Both
	}
	return before - after
}

// floorOf returns a net's least cost under w for each mask of blocks
// that locked connections keep active (bit b for block b): the least
// cost of any activity pattern that covers the mask. Some block is
// always active on a net a cell connects to, which rules out the
// inactive row. A net no cell connects to (idle) keeps its cost, that of
// its virtual pins alone: none, or block 1's on a pinned external net,
// which the mask records as locked. Taking minima keeps the floor valid
// for weights that are negative or shrink as a net spans more blocks.
func floorOf(w *NetWeights, idle bool) [4]int32 {
	if idle {
		return [4]int32{0, w.Alone[0], w.Alone[1], w.Both}
	}
	in0, in1 := min(w.Alone[0], w.Both), min(w.Alone[1], w.Both)
	return [4]int32{min(in0, in1), in0, in1, w.Both}
}

// SetNetWeights installs per-net objective weights (one entry per net)
// or reverts to the classic unit-cut objective (nil). The weighted
// objective total and every maintained single-move gain are recomputed;
// the undo trail must be empty (set weights between runs, not inside
// one — checkpoints and pending undo tokens do not capture the old
// weight table).
func (s *State) SetNetWeights(w []NetWeights) error {
	if w != nil && len(w) != len(s.g.Nets) {
		return fmt.Errorf("replication: %d net weights for %d nets", len(w), len(s.g.Nets))
	}
	if len(s.trail) != 0 {
		return fmt.Errorf("replication: SetNetWeights with %d moves on the undo trail", len(s.trail))
	}
	s.netW = w
	s.recomputeWeighted()
	return nil
}

// recomputeWeighted reseeds the weighted objective total, the move-gain
// bound, the per-net floor table and every unreplicated cell's gain for
// the current weight table.
func (s *State) recomputeWeighted() {
	s.maxMoveGain = s.maxDeg
	s.topo = 0
	if s.netW != nil {
		s.floor = slices.Grow(s.floor[:0], len(s.netW))[:len(s.netW)]
		spread := int32(1)
		for i := range s.netW {
			w := &s.netW[i]
			s.floor[i] = floorOf(w, s.netOff[i] == s.netOff[i+1])
			lo, hi := int32(0), int32(0)
			for _, v := range [3]int32{w.Alone[0], w.Alone[1], w.Both} {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if d := hi - lo; d > spread {
				spread = d
			}
			s.topo += int(costAt(w, s.cnt[i][0], s.cnt[i][1]))
		}
		s.maxMoveGain = s.maxDeg * int(spread)
	}
	for ci := range s.gainS {
		if !s.repl[ci] {
			s.gainS[ci] = s.computeSingleGain(hypergraph.CellID(ci))
		}
	}
}

// Weighted reports whether a per-net weight table is installed.
func (s *State) Weighted() bool { return s.netW != nil }

// TopologyCost returns the maintained weighted objective Σ cost(net)
// under the installed weight table. Zero when no table is installed.
func (s *State) TopologyCost() int { return s.topo }

// Objective returns the quantity an FM-style engine should minimize on
// this state: the weighted topology cost when a weight table is
// installed, the plain cut size otherwise. Engines that track their
// best-prefix via Objective are objective-generic while remaining
// byte-identical on unweighted states.
func (s *State) Objective() int {
	if s.netW != nil {
		return s.topo
	}
	return s.cut
}

// MaxMoveGain bounds |gain| for every move kind under the current
// objective: MaxCellDegree for the unit-cut objective, scaled by the
// largest per-net weight spread when a weight table is installed. Gain
// bucket arrays sized by this bound never overflow.
func (s *State) MaxMoveGain() int { return s.maxMoveGain }
