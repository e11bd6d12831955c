package replication

import (
	"math/rand"
	"testing"

	"fpgapart/internal/hypergraph"
)

// Property: with gain maintenance off, SingleGain evaluates from
// scratch and agrees with a maintained twin at every step of a random
// move sequence, under the unit-cut and a weighted objective.
func TestSingleGainWithoutMaintenance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st := randomState(t, seed, 60)
		twin := randomState(t, seed, 60)
		r := rand.New(rand.NewSource(seed * 13))
		if seed%2 == 0 {
			w := randomWeights(r, len(st.Graph().Nets))
			if err := st.SetNetWeights(w); err != nil {
				t.Fatal(err)
			}
			if err := twin.SetNetWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		st.SetGainMaintenance(false)
		for step := 0; step < 100; step++ {
			for ci := 0; ci < st.Graph().NumCells(); ci++ {
				c := hypergraph.CellID(ci)
				if st.IsReplicated(c) {
					continue
				}
				if got, want := st.SingleGain(c), twin.SingleGain(c); got != want {
					t.Fatalf("seed %d step %d: unmaintained single gain(%d)=%d, maintained %d", seed, step, ci, got, want)
				}
			}
			m := randomMove(r, st)
			if _, err := st.Apply(m); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// With maintenance off, Apply must keep every derived quantity except
// the cached single gains exact, record LastTouched as before, and
// re-enabling maintenance must make SingleGain and full invariants
// valid again.
func TestGainMaintenanceToggle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st := randomState(t, seed, 50)
		mirror := randomState(t, seed, 50) // stays in maintained mode
		st.SetGainMaintenance(false)
		if st.GainMaintenance() {
			t.Fatal("maintenance still reported on")
		}
		r1 := rand.New(rand.NewSource(seed * 31))
		r2 := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 120; step++ {
			m1, m2 := randomMove(r1, st), randomMove(r2, mirror)
			if m1 != m2 {
				t.Fatalf("seed %d step %d: move streams diverged", seed, step)
			}
			if _, err := st.Apply(m1); err != nil {
				t.Fatal(err)
			}
			if _, err := mirror.Apply(m2); err != nil {
				t.Fatal(err)
			}
			if st.CutSize() != mirror.CutSize() || st.Area(0) != mirror.Area(0) ||
				st.Terminals(0) != mirror.Terminals(0) || st.Terminals(1) != mirror.Terminals(1) {
				t.Fatalf("seed %d step %d: maintenance-off state diverged", seed, step)
			}
			a, b := st.LastTouched(), mirror.LastTouched()
			if len(a) != len(b) {
				t.Fatalf("seed %d step %d: LastTouched %d cells vs %d", seed, step, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d step %d: LastTouched[%d] %d vs %d", seed, step, i, a[i], b[i])
				}
			}
			// Invariants (minus the gain cross-check, which the toggle
			// disables) must hold mid-flight.
			if step%29 == 0 {
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		st.SetGainMaintenance(true)
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: invariants after re-enable: %v", seed, err)
		}
		for ci := 0; ci < st.Graph().NumCells(); ci++ {
			c := hypergraph.CellID(ci)
			if st.IsReplicated(c) {
				continue
			}
			if st.SingleGain(c) != mirror.SingleGain(c) {
				t.Fatalf("seed %d: cell %d gain %d after re-enable, maintained mirror %d",
					seed, ci, st.SingleGain(c), mirror.SingleGain(c))
			}
		}
	}
}

// Undo with maintenance off must restore the exact pre-move state
// (ownership, cut, areas, terminals), same as the maintained path.
func TestGainMaintenanceOffUndo(t *testing.T) {
	st := randomState(t, 5, 40)
	st.SetGainMaintenance(false)
	cut0, a0, a1 := st.CutSize(), st.Area(0), st.Area(1)
	start := st.Mark()
	r := rand.New(rand.NewSource(55))
	for step := 0; step < 60; step++ {
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Undo(start); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != cut0 || st.Area(0) != a0 || st.Area(1) != a1 {
		t.Fatalf("undo mismatch: cut %d want %d, areas (%d,%d) want (%d,%d)",
			st.CutSize(), cut0, st.Area(0), st.Area(1), a0, a1)
	}
	st.SetGainMaintenance(true)
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
