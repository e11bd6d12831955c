package replication

import (
	"math/rand"
	"slices"
	"testing"

	"fpgapart/internal/hypergraph"
)

// A rebound state must be indistinguishable from a fresh one on the new
// graph, whatever the old one held: here a larger graph, pinned, with
// replication moves and rollbacks on its counters.
func TestRebindMatchesFresh(t *testing.T) {
	for _, pin := range []bool{false, true} {
		old := randomState(t, 1, 120)
		st, err := NewStatePinned(old.g, make([]Block, old.g.NumCells()), true)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		st.PrepareSplitGains()
		tok := st.Mark()
		for i := 0; i < 40; i++ {
			if _, err := st.Apply(randomMove(r, st)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Undo(tok + 20); err != nil {
			t.Fatal(err)
		}

		g := randomState(t, 2, 50).g
		assign := make([]Block, g.NumCells())
		for i := range assign {
			assign[i] = Block(r.Intn(2))
		}
		if err := st.Rebind(g, assign, pin); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewStatePinned(g, assign, pin)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats() != (Stats{}) {
			t.Fatalf("pin=%v: rebound state keeps stats %+v", pin, st.Stats())
		}
		// Drive both through the same moves: every static table the
		// rebind rebuilt, the split-gain table included, is exercised
		// against the fresh one.
		st.PrepareSplitGains()
		fresh.PrepareSplitGains()
		var gains, freshGains [MaxSplits]int
		moves := rand.New(rand.NewSource(2))
		for step := 0; step <= 60; step++ {
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("pin=%v step %d: %v", pin, step, err)
			}
			if st.CutSize() != fresh.CutSize() ||
				st.Terminals(0) != fresh.Terminals(0) || st.Terminals(1) != fresh.Terminals(1) ||
				st.MaxCellDegree() != fresh.MaxCellDegree() {
				t.Fatalf("pin=%v step %d: rebound cut %d terms %d/%d, fresh %d %d/%d", pin, step,
					st.CutSize(), st.Terminals(0), st.Terminals(1),
					fresh.CutSize(), fresh.Terminals(0), fresh.Terminals(1))
			}
			for ci := range g.Cells {
				c := hypergraph.CellID(ci)
				if st.IsReplicated(c) {
					continue
				}
				if st.SingleGain(c) != fresh.SingleGain(c) {
					t.Fatalf("pin=%v step %d: cell %d gain %d, fresh %d", pin, step, ci, st.SingleGain(c), fresh.SingleGain(c))
				}
				if got, want := st.SplitGains(c, gains[:]), fresh.SplitGains(c, freshGains[:]); !slices.Equal(got, want) {
					t.Fatalf("pin=%v step %d: cell %d split gains %v, fresh %v", pin, step, ci, got, want)
				}
			}
			m := randomMove(moves, fresh)
			if _, err := st.Apply(m); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
		if st.Stats() != fresh.Stats() {
			t.Fatalf("pin=%v: stats %+v, fresh %+v", pin, st.Stats(), fresh.Stats())
		}
	}
}

// A warm rebind to a graph no larger than one the state already held
// reuses every array, and so does the split-gain table rebuilt after it.
func TestRebindAllocs(t *testing.T) {
	st := randomState(t, 3, 200)
	big := st.g
	small := randomState(t, 4, 120).g
	bigAssign := make([]Block, big.NumCells())
	smallAssign := make([]Block, small.NumCells())
	for i := range smallAssign {
		smallAssign[i] = Block(i % 2)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := st.Rebind(small, smallAssign, true); err != nil {
			t.Fatal(err)
		}
		st.PrepareSplitGains()
		if err := st.Rebind(big, bigAssign, false); err != nil {
			t.Fatal(err)
		}
		st.PrepareSplitGains()
	})
	if avg != 0 {
		t.Fatalf("warm Rebind allocates %v times", avg)
	}
}
