package replication

import (
	"slices"

	"fpgapart/internal/hypergraph"
)

// FrozenCut counts, during one FM pass, the nets that stay cut in every
// later prefix of the pass. The pass locks each cell once it moves, and
// a locked cell keeps its ownership for the rest of the pass, so a net
// on which locked cells hold active connections in both blocks cannot
// leave the cut set again. With virtual external pins (NewStatePinned)
// an external net's block-1 pin never moves, so it counts as a locked
// block-1 connection from the start.
//
// Under the unit-cut objective the count bounds the cut of every later
// prefix from below: once it reaches the pass's best cut, no later
// prefix can be strictly better and the pass can stop with the same
// outcome. A zero FrozenCut is ready for Reset, which reuses its per-net
// array across passes and graphs.
type FrozenCut struct {
	s     *State
	sides []uint8 // per net: bit b set once a locked connection is active in block b
	n     int
}

// Reset starts a pass on st with no cell locked.
func (f *FrozenCut) Reset(st *State) {
	f.s = st
	m := len(st.cnt)
	f.sides = slices.Grow(f.sides[:0], m)[:m]
	clear(f.sides)
	if st.extPin {
		for n, ext := range st.isExt {
			if ext {
				f.sides[n] = 2
			}
		}
	}
	f.n = 0
}

// Lock records that cell c keeps its current ownership for the rest of
// the pass.
func (f *FrozenCut) Lock(c hypergraph.CellID) {
	s := f.s
	own := s.own[c]
	for e := s.adjOff[c]; e < s.adjOff[c+1]; e++ {
		// An unreplicated cell's home copy owns every output, so all of
		// its active pins are active there.
		side := uint8(1) << s.home[c]
		if s.repl[c] {
			side = 0
			for _, mask := range s.pinMask[s.pinOff[e]:s.pinOff[e+1]] {
				if own[0]&mask != 0 {
					side |= 1
				}
				if own[1]&mask != 0 {
					side |= 2
				}
			}
		}
		n := s.adjNet[e]
		if was := f.sides[n]; was != 3 && was|side == 3 {
			f.n++
		}
		f.sides[n] |= side
	}
}

// Count returns the number of nets that locked connections keep cut.
func (f *FrozenCut) Count() int { return f.n }
