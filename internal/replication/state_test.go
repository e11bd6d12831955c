package replication

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
)

// crafted builds a 2-output cell M whose three gain kinds are
// hand-computed (a Figure-4 style scenario):
//
//	inputs a,b,c,d,e; outputs X1 (deps a,b,c), X2 (deps d,e)
//	block A: DA→a, DB→b, SC (extra sink of c), M, S1 (sink of X1), SX2A (sink of X2)
//	block B: DC→c, DD→d, DE→e, SX2B (sink of X2)
//
// Initial cut = {pi, c, d, e, X2} = 5 (pi is consumed in both blocks).
// G_move(M) = −1, G_traditional(M) = −1, G_functional(M, carry X2) = +2,
// G_functional(M, carry X1) = −3.
func crafted(t *testing.T) (*State, hypergraph.CellID) {
	t.Helper()
	b := hypergraph.NewBuilder("crafted")
	pi := b.InputNet("pi")
	a := b.Net("a")
	bn := b.Net("b")
	c := b.Net("c")
	d := b.Net("d")
	e := b.Net("e")
	x1 := b.Net("x1")
	x2 := b.Net("x2")
	o := make([]hypergraph.NetID, 6)
	for i := range o {
		o[i] = b.OutputNet(sinkName(i))
	}
	da := b.AddCell(hypergraph.CellSpec{Name: "DA", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{a}})
	db := b.AddCell(hypergraph.CellSpec{Name: "DB", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{bn}})
	dc := b.AddCell(hypergraph.CellSpec{Name: "DC", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{c}})
	dd := b.AddCell(hypergraph.CellSpec{Name: "DD", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{d}})
	de := b.AddCell(hypergraph.CellSpec{Name: "DE", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{e}})
	m := b.AddCell(hypergraph.CellSpec{
		Name:    "M",
		Inputs:  []hypergraph.NetID{a, bn, c, d, e},
		Outputs: []hypergraph.NetID{x1, x2},
		DepBits: [][]int{{1, 1, 1, 0, 0}, {0, 0, 0, 1, 1}},
	})
	sc := b.AddCell(hypergraph.CellSpec{Name: "SC", Inputs: []hypergraph.NetID{c}, Outputs: []hypergraph.NetID{o[0]}})
	s1 := b.AddCell(hypergraph.CellSpec{Name: "S1", Inputs: []hypergraph.NetID{x1}, Outputs: []hypergraph.NetID{o[1]}})
	sx2a := b.AddCell(hypergraph.CellSpec{Name: "SX2A", Inputs: []hypergraph.NetID{x2}, Outputs: []hypergraph.NetID{o[2]}})
	sx2b := b.AddCell(hypergraph.CellSpec{Name: "SX2B", Inputs: []hypergraph.NetID{x2}, Outputs: []hypergraph.NetID{o[3]}})
	// Keep the builder happy: extra sinks for leftover output nets.
	b.AddCell(hypergraph.CellSpec{Name: "F1", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{o[4]}})
	b.AddCell(hypergraph.CellSpec{Name: "F2", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{o[5]}})
	g := b.MustBuild()

	assign := make([]Block, g.NumCells())
	for _, id := range []hypergraph.CellID{dc, dd, de, sx2b} {
		assign[id] = 1
	}
	// F1/F2 stay in block A; da, db, m, sc, s1, sx2a in A.
	_ = []hypergraph.CellID{da, db, sc, s1, sx2a}
	st, err := NewState(g, assign)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return st, m
}

func sinkName(i int) string {
	return "po" + string(rune('0'+i))
}

func TestCraftedInitialState(t *testing.T) {
	st, m := crafted(t)
	if st.CutSize() != 5 {
		t.Fatalf("initial cut = %d, want 5 (pi,c,d,e,x2)", st.CutSize())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.Home(m) != 0 || st.IsReplicated(m) {
		t.Fatal("M misplaced")
	}
	if st.psi[m] != 5 {
		t.Fatalf("ψ(M) = %d, want 5", st.psi[m])
	}
}

func TestCraftedGainMove(t *testing.T) {
	st, m := crafted(t)
	g, err := st.Gain(Move{Cell: m, Kind: SingleMove})
	if err != nil {
		t.Fatal(err)
	}
	if g != -1 {
		t.Fatalf("G_move = %d, want -1", g)
	}
	gf, err := st.GainMoveFormula(m)
	if err != nil {
		t.Fatal(err)
	}
	if gf != -1 {
		t.Fatalf("Eq.(7) G_m = %d, want -1", gf)
	}
}

func TestCraftedGainTraditional(t *testing.T) {
	st, m := crafted(t)
	g, err := st.GainTraditionalFormula(m)
	if err != nil {
		t.Fatal(err)
	}
	// |C^I| + |C^O| − n = (3+1) − 5 = −1.
	if g != -1 {
		t.Fatalf("Eq.(8) G_tr = %d, want -1", g)
	}
}

func TestCraftedGainFunctional(t *testing.T) {
	st, m := crafted(t)
	// Carry X2 (output index 1 -> mask 0b10): inputs d,e relocate.
	g, err := st.GainFunctionalFormula(m, 0b10)
	if err != nil {
		t.Fatal(err)
	}
	if g != 2 {
		t.Fatalf("G_func(carry X2) = %d, want +2", g)
	}
	g, err = st.GainFunctionalFormula(m, 0b01)
	if err != nil {
		t.Fatal(err)
	}
	if g != -3 {
		t.Fatalf("G_func(carry X1) = %d, want -3", g)
	}
	best, carry, ok, err := st.GainFunctionalBest(m)
	if err != nil || !ok {
		t.Fatalf("best: %v %v", ok, err)
	}
	if best != 2 || carry != 0b10 {
		t.Fatalf("best = %d carry %b, want +2 carrying X2", best, carry)
	}
	// Semantic agreement.
	sg, err := st.Gain(Move{Cell: m, Kind: Replicate, Carry: 0b10})
	if err != nil {
		t.Fatal(err)
	}
	if sg != 2 {
		t.Fatalf("semantic replicate gain = %d, want +2", sg)
	}
}

func TestCraftedFunctionalBeatsTraditionalAndMove(t *testing.T) {
	st, m := crafted(t)
	gm, _ := st.GainMoveFormula(m)
	gtr, _ := st.GainTraditionalFormula(m)
	gfn, _, _, _ := st.GainFunctionalBest(m)
	if !(gfn > gm && gfn > gtr) {
		t.Fatalf("expected functional (%d) to beat move (%d) and traditional (%d)", gfn, gm, gtr)
	}
}

func TestCraftedApplyReplicate(t *testing.T) {
	st, m := crafted(t)
	areaBefore := [2]int{st.Area(0), st.Area(1)}
	tok, err := st.Apply(Move{Cell: m, Kind: Replicate, Carry: 0b10})
	if err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != 3 {
		t.Fatalf("cut after replicate = %d, want 3 (pi, c, x2)", st.CutSize())
	}
	if !st.IsReplicated(m) || st.ReplicatedCount() != 1 {
		t.Fatal("replication flags wrong")
	}
	if st.OutputsIn(m, 0) != 0b01 || st.OutputsIn(m, 1) != 0b10 {
		t.Fatalf("ownership = %b/%b", st.OutputsIn(m, 0), st.OutputsIn(m, 1))
	}
	// Replicated cell occupies area in both blocks.
	if st.Area(0) != areaBefore[0] || st.Area(1) != areaBefore[1]+1 {
		t.Fatalf("area = %d/%d", st.Area(0), st.Area(1))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Undo restores everything.
	if err := st.Undo(tok); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != 5 || st.IsReplicated(m) || st.Area(1) != areaBefore[1] {
		t.Fatalf("undo failed: cut=%d repl=%v", st.CutSize(), st.IsReplicated(m))
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCraftedUnreplicate(t *testing.T) {
	st, m := crafted(t)
	if _, err := st.Apply(Move{Cell: m, Kind: Replicate, Carry: 0b10}); err != nil {
		t.Fatal(err)
	}
	// Unreplicating back to block 0 restores the original cut.
	g, err := st.Gain(Move{Cell: m, Kind: Unreplicate, To: 0})
	if err != nil {
		t.Fatal(err)
	}
	if g != -2 {
		t.Fatalf("unreplicate-to-0 gain = %d, want -2", g)
	}
	if _, err := st.Apply(Move{Cell: m, Kind: Unreplicate, To: 0}); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != 5 || st.IsReplicated(m) || st.Home(m) != 0 {
		t.Fatalf("unreplicate wrong: cut=%d", st.CutSize())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveValidation(t *testing.T) {
	st, m := crafted(t)
	if _, err := st.Gain(Move{Cell: m, Kind: Replicate, Carry: 0}); err == nil {
		t.Fatal("carry 0 should fail")
	}
	if _, err := st.Gain(Move{Cell: m, Kind: Replicate, Carry: 0b11}); err == nil {
		t.Fatal("carry == all should fail")
	}
	if _, err := st.Gain(Move{Cell: m, Kind: Unreplicate, To: 0}); err == nil {
		t.Fatal("unreplicate of unreplicated cell should fail")
	}
	if _, err := st.Apply(Move{Cell: m, Kind: Replicate, Carry: 0b01}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Gain(Move{Cell: m, Kind: SingleMove}); err == nil {
		t.Fatal("move of replicated cell should fail")
	}
	if _, err := st.Gain(Move{Cell: m, Kind: Replicate, Carry: 0b01}); err == nil {
		t.Fatal("re-replication should fail")
	}
	if _, err := st.Gain(Move{Cell: -1, Kind: SingleMove}); err == nil {
		t.Fatal("invalid cell should fail")
	}
}

func TestNewStateValidation(t *testing.T) {
	st, _ := crafted(t)
	g := st.g
	if _, err := NewState(g, make([]Block, 1)); err == nil {
		t.Fatal("short assignment should fail")
	}
	bad := make([]Block, g.NumCells())
	bad[0] = 2
	if _, err := NewState(g, bad); err == nil {
		t.Fatal("block 2 should fail")
	}
}

func TestTerminals(t *testing.T) {
	st, _ := crafted(t)
	// Block A IOBs: cut nets c,d,e,x2 + external nets touching A:
	// pi (ExtIn, used by A cells), po0..po2, po4, po5 (ExtOut in A).
	// = 4 + 1 + 5 = 10.
	if got := st.Terminals(0); got != 10 {
		t.Fatalf("t_P0 = %d, want 10", got)
	}
	// Block B: cut nets c,d,e,x2 + pi + po3 = 6.
	if got := st.Terminals(1); got != 6 {
		t.Fatalf("t_P1 = %d, want 6", got)
	}
}

func TestCanReplicateThreshold(t *testing.T) {
	st, m := crafted(t)
	if !st.CanReplicate(m, 0) || !st.CanReplicate(m, 5) {
		t.Fatal("M (ψ=5) should be replicable at T≤5")
	}
	if st.CanReplicate(m, 6) {
		t.Fatal("M should not be replicable at T=6")
	}
	// Single-output cell DA never qualifies.
	if st.CanReplicate(0, 0) {
		t.Fatal("single-output cell should not be replicable")
	}
}

func TestSplits(t *testing.T) {
	st, m := crafted(t)
	splits := st.Splits(m)
	if len(splits) != 2 {
		t.Fatalf("2-output splits = %v, want {01,10}", splits)
	}
	if st.Splits(0) != nil {
		t.Fatal("single-output cell should have no splits")
	}
}

func TestInstanceSpecs(t *testing.T) {
	st, m := crafted(t)
	if _, err := st.Apply(Move{Cell: m, Kind: Replicate, Carry: 0b10}); err != nil {
		t.Fatal(err)
	}
	specsA := st.InstanceSpecs(0)
	specsB := st.InstanceSpecs(1)
	var foundOrig, foundRepl bool
	for _, s := range specsA {
		if s.Cell == m {
			foundOrig = true
			if s.Rename != "" || len(s.Outputs) != 1 || s.Outputs[0] != 0 {
				t.Fatalf("original spec wrong: %+v", s)
			}
		}
	}
	for _, s := range specsB {
		if s.Cell == m {
			foundRepl = true
			if s.Rename != "M$r" || len(s.Outputs) != 1 || s.Outputs[0] != 1 {
				t.Fatalf("replica spec wrong: %+v", s)
			}
		}
	}
	if !foundOrig || !foundRepl {
		t.Fatal("replicated cell missing from a block's specs")
	}
	// Both sides materialize into valid subcircuits.
	g := st.g
	for b := Block(0); b < 2; b++ {
		sub, err := g.Subcircuit("side", st.InstanceSpecs(b), func(n hypergraph.NetID) bool { return st.CutNet(n) })
		if err != nil {
			t.Fatalf("block %d subcircuit: %v", b, err)
		}
		if sub.NumCells() == 0 {
			t.Fatalf("block %d empty", b)
		}
	}
}

func TestTouchedCellsIncludesNeighbors(t *testing.T) {
	st, m := crafted(t)
	touched := st.TouchedCells(m, nil)
	if len(touched) < 5 {
		t.Fatalf("touched = %d cells, want several", len(touched))
	}
	if touched[0] != m {
		t.Fatal("first touched cell should be the mover")
	}
}

// --- randomized property tests -------------------------------------

func randomState(t testing.TB, seed int64, cells int) *State {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "prop", Cells: cells, PrimaryIn: 8, PrimaryOut: 4,
		Seed: seed, Clustering: 0.4, DFFs: cells / 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed * 7))
	assign := make([]Block, g.NumCells())
	for i := range assign {
		assign[i] = Block(r.Intn(2))
	}
	st, err := NewState(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func randomMove(r *rand.Rand, st *State) Move {
	for {
		c := hypergraph.CellID(r.Intn(st.NumCells()))
		if st.IsReplicated(c) {
			return Move{Cell: c, Kind: Unreplicate, To: Block(r.Intn(2))}
		}
		if r.Intn(2) == 0 {
			return Move{Cell: c, Kind: SingleMove}
		}
		splits := st.Splits(c)
		if len(splits) == 0 {
			return Move{Cell: c, Kind: SingleMove}
		}
		return Move{Cell: c, Kind: Replicate, Carry: splits[r.Intn(len(splits))]}
	}
}

// Property: Gain always equals the observed cut delta, and invariants
// hold after every mutation.
func TestPropertyGainMatchesDelta(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		st := randomState(t, seed, 60)
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 120; step++ {
			m := randomMove(r, st)
			want, err := st.Gain(m)
			if err != nil {
				t.Fatalf("seed %d step %d: gain(%v): %v", seed, step, m, err)
			}
			before := st.CutSize()
			if _, err := st.Apply(m); err != nil {
				t.Fatalf("seed %d step %d: apply(%v): %v", seed, step, m, err)
			}
			if got := before - st.CutSize(); got != want {
				t.Fatalf("seed %d step %d: %v gain=%d, actual delta=%d", seed, step, m, want, got)
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

// Property: Undo(0) restores the initial state exactly.
func TestPropertyUndoRestores(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st := randomState(t, seed, 50)
		cut0 := st.CutSize()
		area0 := [2]int{st.Area(0), st.Area(1)}
		t0, t1 := st.Terminals(0), st.Terminals(1)
		own0 := make([][2]uint32, st.g.NumCells())
		for i := range own0 {
			own0[i] = [2]uint32{st.OutputsIn(hypergraph.CellID(i), 0), st.OutputsIn(hypergraph.CellID(i), 1)}
		}
		r := rand.New(rand.NewSource(seed + 100))
		start := st.Mark()
		for step := 0; step < 80; step++ {
			if _, err := st.Apply(randomMove(r, st)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Undo(start); err != nil {
			t.Fatal(err)
		}
		if st.CutSize() != cut0 || st.Area(0) != area0[0] || st.Area(1) != area0[1] {
			t.Fatalf("seed %d: undo mismatch cut %d vs %d", seed, st.CutSize(), cut0)
		}
		if st.Terminals(0) != t0 || st.Terminals(1) != t1 {
			t.Fatalf("seed %d: terminal mismatch after undo", seed)
		}
		for i := range own0 {
			c := hypergraph.CellID(i)
			if st.OutputsIn(c, 0) != own0[i][0] || st.OutputsIn(c, 1) != own0[i][1] {
				t.Fatalf("seed %d: ownership of cell %d not restored", seed, i)
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: the paper's closed-form gains (Eqs. 7, 9–11) agree with the
// semantic engine on mapped netlists (distinct nets per cell pin).
func TestPropertyFormulaMatchesSemantic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := randomState(t, seed, 60)
		r := rand.New(rand.NewSource(seed + 55))
		// Random warm-up so states include replicated neighborhoods.
		for i := 0; i < 40; i++ {
			if _, err := st.Apply(randomMove(r, st)); err != nil {
				t.Fatal(err)
			}
		}
		for ci := 0; ci < st.g.NumCells(); ci++ {
			c := hypergraph.CellID(ci)
			if st.IsReplicated(c) {
				continue
			}
			wantMove, err := st.Gain(Move{Cell: c, Kind: SingleMove})
			if err != nil {
				t.Fatal(err)
			}
			gotMove, err := st.GainMoveFormula(c)
			if err != nil {
				t.Fatal(err)
			}
			if gotMove != wantMove {
				t.Fatalf("seed %d cell %d: Eq.(7)=%d semantic=%d", seed, ci, gotMove, wantMove)
			}
			for _, carry := range st.Splits(c) {
				want, err := st.Gain(Move{Cell: c, Kind: Replicate, Carry: carry})
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.GainFunctionalFormula(c, carry)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d cell %d carry %b: Eq.(9-10)=%d semantic=%d",
						seed, ci, carry, got, want)
				}
			}
		}
	}
}

func TestUndoTokenValidation(t *testing.T) {
	st, _ := crafted(t)
	if err := st.Undo(5); err == nil {
		t.Fatal("future token should fail")
	}
	if err := st.Undo(-1); err == nil {
		t.Fatal("negative token should fail")
	}
}

// quick.Check property: any generated (seed, steps) pair leaves the
// state consistent, with gains matching observed deltas throughout.
func TestQuickStateConsistency(t *testing.T) {
	f := func(seedRaw uint16, stepsRaw uint8) bool {
		st := randomState(t, int64(seedRaw)+1, 40)
		r := rand.New(rand.NewSource(int64(seedRaw)))
		steps := int(stepsRaw)%60 + 1
		for i := 0; i < steps; i++ {
			m := randomMove(r, st)
			want, err := st.Gain(m)
			if err != nil {
				return false
			}
			before := st.CutSize()
			if _, err := st.Apply(m); err != nil {
				return false
			}
			if before-st.CutSize() != want {
				return false
			}
		}
		return st.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Reset must produce the same state a fresh construction does,
// including the incrementally maintained terminal counters and
// single-move gains — that equivalence is what lets the k-way carve
// loop reuse one State across retries.
func TestResetMatchesFresh(t *testing.T) {
	st := randomState(t, 3, 80)
	g := st.g
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	assign := make([]Block, g.NumCells())
	for i := range assign {
		assign[i] = Block(r.Intn(2))
	}
	for _, pin := range []bool{false, true} {
		if err := st.ResetPinned(assign, pin); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewStatePinned(g, assign, pin)
		if err != nil {
			t.Fatal(err)
		}
		if st.CutSize() != fresh.CutSize() {
			t.Fatalf("pin=%v: reset cut %d, fresh %d", pin, st.CutSize(), fresh.CutSize())
		}
		for b := Block(0); b < 2; b++ {
			if st.Area(b) != fresh.Area(b) {
				t.Fatalf("pin=%v: reset area(%d) %d, fresh %d", pin, b, st.Area(b), fresh.Area(b))
			}
			if st.Terminals(b) != fresh.Terminals(b) {
				t.Fatalf("pin=%v: reset terminals(%d) %d, fresh %d", pin, b, st.Terminals(b), fresh.Terminals(b))
			}
		}
		for ci := 0; ci < g.NumCells(); ci++ {
			c := hypergraph.CellID(ci)
			if st.SingleGain(c) != fresh.SingleGain(c) {
				t.Fatalf("pin=%v: cell %d reset gain %d, fresh %d", pin, ci, st.SingleGain(c), fresh.SingleGain(c))
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("pin=%v: %v", pin, err)
		}
	}
}

// SaveCheckpoint/RestoreCheckpoint must be equivalent to Undo of every
// move applied after the save.
func TestCheckpointRestore(t *testing.T) {
	st := randomState(t, 5, 70)
	shadow := randomState(t, 5, 70)
	r := rand.New(rand.NewSource(17))
	rs := rand.New(rand.NewSource(17))
	apply := func(s *State, rr *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Apply(randomMove(rr, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(st, r, 25)
	apply(shadow, rs, 25)
	var cp Checkpoint
	if err := st.RestoreCheckpoint(&cp); err == nil {
		t.Fatal("restore from unsaved checkpoint succeeded")
	}
	st.SaveCheckpoint(&cp)
	tok := shadow.Mark()
	apply(st, r, 40)
	apply(shadow, rs, 40)
	if err := st.RestoreCheckpoint(&cp); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Undo(tok); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != shadow.CutSize() {
		t.Fatalf("restored cut %d, undo cut %d", st.CutSize(), shadow.CutSize())
	}
	for b := Block(0); b < 2; b++ {
		if st.Terminals(b) != shadow.Terminals(b) || st.Area(b) != shadow.Area(b) {
			t.Fatalf("block %d: restored term/area %d/%d, undo %d/%d",
				b, st.Terminals(b), st.Area(b), shadow.Terminals(b), shadow.Area(b))
		}
	}
	for ci := 0; ci < st.g.NumCells(); ci++ {
		c := hypergraph.CellID(ci)
		if st.IsReplicated(c) != shadow.IsReplicated(c) || st.Home(c) != shadow.Home(c) {
			t.Fatalf("cell %d: restored repl/home %v/%v, undo %v/%v",
				ci, st.IsReplicated(c), st.Home(c), shadow.IsReplicated(c), shadow.Home(c))
		}
		if !st.IsReplicated(c) && st.SingleGain(c) != shadow.SingleGain(c) {
			t.Fatalf("cell %d: restored gain %d, undo gain %d", ci, st.SingleGain(c), shadow.SingleGain(c))
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// For a single move, LastTouched must be exactly the TouchedCells
// neighborhood of the mover, in the same order (mover first).
func TestLastTouchedMatchesTouchedCells(t *testing.T) {
	st := randomState(t, 7, 60)
	r := rand.New(rand.NewSource(23))
	var want []hypergraph.CellID
	for step := 0; step < 80; step++ {
		var c hypergraph.CellID
		for {
			c = hypergraph.CellID(r.Intn(st.g.NumCells()))
			if !st.IsReplicated(c) {
				break
			}
		}
		want = st.TouchedCells(c, want)
		if _, err := st.Apply(Move{Cell: c, Kind: SingleMove}); err != nil {
			t.Fatal(err)
		}
		got := st.LastTouched()
		if len(got) != len(want) {
			t.Fatalf("step %d: LastTouched %d cells, TouchedCells %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: LastTouched[%d] = %d, TouchedCells[%d] = %d", step, i, got[i], i, want[i])
			}
		}
	}
}

// The maintained single-move gains must track the semantic Gain under
// arbitrary interleavings of all three move kinds and undos.
func TestSingleGainMaintained(t *testing.T) {
	st := randomState(t, 11, 50)
	r := rand.New(rand.NewSource(31))
	var toks []Token
	for step := 0; step < 200; step++ {
		if len(toks) > 0 && r.Intn(4) == 0 {
			k := r.Intn(len(toks))
			if err := st.Undo(toks[k]); err != nil {
				t.Fatal(err)
			}
			toks = toks[:k]
		} else {
			tok, err := st.Apply(randomMove(r, st))
			if err != nil {
				t.Fatal(err)
			}
			toks = append(toks, tok)
		}
		for ci := 0; ci < st.g.NumCells(); ci++ {
			c := hypergraph.CellID(ci)
			if st.IsReplicated(c) {
				continue
			}
			want := st.MustGain(Move{Cell: c, Kind: SingleMove})
			if got := st.SingleGain(c); got != want {
				t.Fatalf("step %d cell %d: maintained gain %d, semantic %d", step, ci, got, want)
			}
		}
	}
}
