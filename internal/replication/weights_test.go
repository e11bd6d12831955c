package replication

import (
	"math/rand"
	"testing"

	"fpgapart/internal/hypergraph"
)

// randomWeights builds an arbitrary non-negative weight table: some
// nets cheap on one side, some symmetric, spreads up to 6.
func randomWeights(r *rand.Rand, nets int) []NetWeights {
	w := make([]NetWeights, nets)
	for i := range w {
		a0 := int32(r.Intn(4))
		a1 := int32(r.Intn(4))
		both := a0 + a1 + int32(r.Intn(3))
		w[i] = NetWeights{Alone: [2]int32{a0, a1}, Both: both}
	}
	return w
}

// unitWeights is the classic objective expressed as a weight table.
func unitWeights(nets int) []NetWeights {
	w := make([]NetWeights, nets)
	for i := range w {
		w[i] = NetWeights{Both: 1}
	}
	return w
}

// Property: with the unit table installed, the weighted machinery
// reproduces the classic objective move for move — TopologyCost equals
// CutSize and every gain matches a twin unweighted state.
func TestUnitWeightsMatchCut(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st := randomState(t, seed, 50)
		twin := randomState(t, seed, 50)
		if err := st.SetNetWeights(unitWeights(len(st.Graph().Nets))); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 80; step++ {
			m := randomMove(r, st)
			gw, err := st.Gain(m)
			if err != nil {
				t.Fatal(err)
			}
			gu, err := twin.Gain(m)
			if err != nil {
				t.Fatal(err)
			}
			if gw != gu {
				t.Fatalf("seed %d step %d: %v weighted gain %d, classic %d", seed, step, m, gw, gu)
			}
			if _, err := st.Apply(m); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Apply(m); err != nil {
				t.Fatal(err)
			}
			if st.TopologyCost() != st.CutSize() || st.Objective() != twin.CutSize() {
				t.Fatalf("seed %d step %d: topo %d, cut %d/%d", seed, step,
					st.TopologyCost(), st.CutSize(), twin.CutSize())
			}
			for ci := 0; ci < st.Graph().NumCells(); ci++ {
				c := hypergraph.CellID(ci)
				if !st.IsReplicated(c) && st.SingleGain(c) != twin.SingleGain(c) {
					t.Fatalf("seed %d step %d: cell %d maintained gain %d, classic %d",
						seed, step, ci, st.SingleGain(c), twin.SingleGain(c))
				}
			}
		}
	}
}

// Property: under an arbitrary weight table, Gain equals the observed
// TopologyCost delta, stays within MaxMoveGain, agrees with the
// reference gain, and every invariant (including the topo recount)
// holds.
func TestPropertyWeightedGainMatchesDelta(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		st := randomState(t, seed, 60)
		r := rand.New(rand.NewSource(seed * 13))
		if err := st.SetNetWeights(randomWeights(r, len(st.Graph().Nets))); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 120; step++ {
			m := randomMove(r, st)
			want, err := st.Gain(m)
			if err != nil {
				t.Fatalf("seed %d step %d: gain(%v): %v", seed, step, m, err)
			}
			if got, err := referenceGain(st, m); err != nil || got != want {
				t.Fatalf("seed %d step %d: reference gain %d (err %v), state gain %d", seed, step, got, err, want)
			}
			if want > st.MaxMoveGain() || want < -st.MaxMoveGain() {
				t.Fatalf("seed %d step %d: gain %d outside ±MaxMoveGain %d", seed, step, want, st.MaxMoveGain())
			}
			if m.Kind == SingleMove {
				if got := int(st.computeSingleGain(m.Cell)); got != want {
					t.Fatalf("seed %d step %d: recomputed single gain %d, want %d", seed, step, got, want)
				}
				if got := st.SingleGain(m.Cell); got != want {
					t.Fatalf("seed %d step %d: maintained single gain %d, want %d", seed, step, got, want)
				}
			}
			before := st.TopologyCost()
			if _, err := st.Apply(m); err != nil {
				t.Fatalf("seed %d step %d: apply(%v): %v", seed, step, m, err)
			}
			if got := before - st.TopologyCost(); got != want {
				t.Fatalf("seed %d step %d: %v gain=%d, topo delta=%d", seed, step, m, want, got)
			}
			if step%17 == 0 {
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: with virtual external pins, the weighted objective is
// defined over the pinned counts and stays consistent with recount.
func TestWeightedPinnedExternal(t *testing.T) {
	st := randomState(t, 3, 50)
	assign := make([]Block, st.Graph().NumCells())
	r := rand.New(rand.NewSource(5))
	for i := range assign {
		assign[i] = Block(r.Intn(2))
	}
	if err := st.ResetPinned(assign, true); err != nil {
		t.Fatal(err)
	}
	if err := st.SetNetWeights(randomWeights(r, len(st.Graph().Nets))); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		m := randomMove(r, st)
		want, err := st.Gain(m)
		if err != nil {
			t.Fatal(err)
		}
		before := st.TopologyCost()
		if _, err := st.Apply(m); err != nil {
			t.Fatal(err)
		}
		if got := before - st.TopologyCost(); got != want {
			t.Fatalf("step %d: %v gain=%d, topo delta=%d", step, m, want, got)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Undo and checkpoint restore must roll the weighted objective back
// exactly, and ResetPinned must keep the installed table.
func TestWeightedUndoCheckpointReset(t *testing.T) {
	st := randomState(t, 7, 50)
	r := rand.New(rand.NewSource(21))
	if err := st.SetNetWeights(randomWeights(r, len(st.Graph().Nets))); err != nil {
		t.Fatal(err)
	}
	topo0 := st.TopologyCost()
	var cp Checkpoint
	st.SaveCheckpoint(&cp)
	for step := 0; step < 60; step++ {
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	mid := st.TopologyCost()
	if err := st.RestoreCheckpoint(&cp); err != nil {
		t.Fatal(err)
	}
	if st.TopologyCost() != topo0 {
		t.Fatalf("restore: topo %d, want %d", st.TopologyCost(), topo0)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Undo(0); err != nil {
		t.Fatal(err)
	}
	if st.TopologyCost() != topo0 {
		t.Fatalf("undo: topo %d, want %d", st.TopologyCost(), topo0)
	}
	_ = mid
	assign := make([]Block, st.Graph().NumCells())
	if err := st.Reset(assign); err != nil {
		t.Fatal(err)
	}
	if !st.Weighted() {
		t.Fatal("Reset dropped the weight table")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetNetWeightsValidation(t *testing.T) {
	st := randomState(t, 9, 30)
	if err := st.SetNetWeights(make([]NetWeights, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := st.Apply(Move{Cell: 0, Kind: SingleMove}); err != nil {
		t.Fatal(err)
	}
	if err := st.SetNetWeights(unitWeights(len(st.Graph().Nets))); err == nil {
		t.Fatal("SetNetWeights accepted with pending undo trail")
	}
	if err := st.Undo(0); err != nil {
		t.Fatal(err)
	}
	if err := st.SetNetWeights(unitWeights(len(st.Graph().Nets))); err != nil {
		t.Fatal(err)
	}
	if err := st.SetNetWeights(nil); err != nil {
		t.Fatal(err)
	}
	if st.Weighted() || st.Objective() != st.CutSize() {
		t.Fatal("nil table did not revert to the cut objective")
	}
	if st.MaxMoveGain() != st.MaxCellDegree() {
		t.Fatalf("flat MaxMoveGain %d != MaxCellDegree %d", st.MaxMoveGain(), st.MaxCellDegree())
	}
}

// Weighted gains stay maintained through a run of moves and through the
// trail rollback of its tail, the parallel FM engine's usage pattern.
func TestWeightedGainsSurviveTrailRollback(t *testing.T) {
	st := randomState(t, 11, 50)
	r := rand.New(rand.NewSource(31))
	if err := st.SetNetWeights(randomWeights(r, len(st.Graph().Nets))); err != nil {
		t.Fatal(err)
	}
	var tok Token
	for step := 0; step < 50; step++ {
		if step == 20 {
			tok = st.Mark()
		}
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Undo(tok); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
