package replication

import (
	"slices"

	"fpgapart/internal/hypergraph"
)

// ObjectiveFloor bounds from below, during one FM pass, the cut of
// every later prefix of the pass. The pass locks each cell once it moves,
// and a locked cell keeps its ownership for the rest of the pass, so a
// block in which locked cells hold an active connection on a net stays
// active on that net. A net whose locked connections cover both blocks
// therefore stays cut, and the floor is the number of such nets. With
// virtual external pins (NewStatePinned) an external net's block-1 pin
// never moves, so it counts as a locked block-1 connection from the
// start.
//
// Once the floor reaches the pass's best cut, no later prefix can
// be strictly better, so the pass can stop with the same outcome. A zero
// ObjectiveFloor is ready for Reset, which reuses its per-net array
// across passes and graphs.
type ObjectiveFloor struct {
	s     *State
	sides []uint8 // per net: bit b set once a locked connection is active in block b
	v     int
}

// Reset starts a pass on st with no cell locked.
func (f *ObjectiveFloor) Reset(st *State) {
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
	f.v = 0
}

// Lock records that cell c keeps its current ownership for the rest of
// the pass.
func (f *ObjectiveFloor) Lock(c hypergraph.CellID) {
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
		was := f.sides[n]
		now := was | side
		if now == was {
			continue
		}
		f.sides[n] = now
		if now == 3 {
			f.v++
		}
	}
}

// Value returns the floor: no later prefix of the pass has a lower
// cut.
func (f *ObjectiveFloor) Value() int { return f.v }
