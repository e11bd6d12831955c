package multilevel

import (
	"reflect"
	"slices"
	"testing"

	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/trace"
)

// carveState bipartitions st as a k-way carve leaves it: assign, then
// every fifth splittable cell replicated, its replica carrying the
// first candidate split. It returns, per cell, its id in the block-1
// remainder or -1.
func carveState(t *testing.T, st *replication.State, assign []replication.Block) []int32 {
	t.Helper()
	if err := st.ResetPinned(assign, false); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < st.NumCells(); ci += 5 {
		c := hypergraph.CellID(ci)
		if splits := st.Splits(c); len(splits) > 0 {
			if _, err := st.Apply(replication.Move{Cell: c, Kind: replication.Replicate, Carry: splits[0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := make([]int32, st.NumCells())
	j := int32(0)
	for c := range ids {
		ids[c] = -1
		if st.OutputsIn(hypergraph.CellID(c), 1) != 0 {
			ids[c] = j
			j++
		}
	}
	return ids
}

// remainderConfig is balancedConfig over the state's area.
func remainderConfig(st *replication.State, seed int64) Config {
	minA, maxA := fm.Balance(st.TotalArea(), 0.1)
	return Config{
		Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: seed},
		TargetArea: st.TotalArea() / 2,
	}
}

// coarsenedLevels runs one cycle with a recorder armed and returns the
// levels its coarsen phase event reports as narrowed.
func coarsenedLevels(t *testing.T, r *Runner, st *replication.State, cfg Config) (Result, int) {
	t.Helper()
	rec := recordEvents(&cfg)
	res, err := r.Run(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	narrowed := -1
	for _, e := range rec.Filter(trace.KindPhase) {
		if e.Phase == trace.PhaseCoarsen {
			narrowed = e.Level
		}
	}
	if narrowed < 0 {
		t.Fatal("the cycle emitted no coarsen phase event")
	}
	return res, narrowed
}

// Narrowing is a contraction, driven through a Runner: Run, a carve
// with replicas, Runner.Retarget and Run. The second cycle must report
// narrowed levels on its coarsen event, and every narrowed level must
// keep the cap it was built with, have as members exactly the pairs of
// the level it replaced that survive, each cell of the area its members
// sum to, keep the remainder's area and pass CheckInvariants. That
// Narrow contracts by those pairs as the graph references do is
// TestNarrowMatchesReference's part, in package cluster. A retry on
// the same remainder, and a cycle after two Retargets with no cycle
// between, coarsen afresh, the retry exactly as a fresh Runner does.
func TestRunnerNarrowsToRemainder(t *testing.T) {
	g := circuit(t, 2100, 41)
	var r Runner
	var st replication.State
	if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
		t.Fatal(err)
	}
	res, narrowed := coarsenedLevels(t, &r, &st, balancedConfig(g, 0.1, 3))
	if narrowed != 0 {
		t.Fatalf("the first cycle narrowed %d levels", narrowed)
	}
	ids := carveState(t, &st, res.Assign)
	// The hierarchy the remainder's cycle narrows: each coarse level's
	// members and cap.
	type built struct {
		members [][]hypergraph.CellID
		cap     int
	}
	var old []built
	for _, lv := range r.levels[1:] {
		ms := make([][]hypergraph.CellID, len(lv.cl.Members))
		for i, m := range lv.cl.Members {
			ms[i] = slices.Clone(m)
		}
		old = append(old, built{ms, lv.cap})
	}
	r.Retarget(&st)
	area := st.TotalArea()
	cfg := remainderConfig(&st, 4)
	_, narrowed = coarsenedLevels(t, &r, &st, cfg)
	// Two narrowed levels at least, so that the second narrows through
	// the map the first returned.
	if narrowed < 2 {
		t.Fatalf("the cycle after Retarget narrowed %d levels, want at least 2", narrowed)
	}
	t.Logf("%d of %d levels narrowed, %d coarse levels in all", narrowed, len(old), len(r.levels)-1)
	for l := 1; l <= narrowed; l++ {
		lv, finer := r.levels[l], r.levels[l-1].st
		if lv.cap != old[l-1].cap {
			t.Fatalf("level %d: cap %d, built with %d", l, lv.cap, old[l-1].cap)
		}
		// The surviving pairs as the contraction lists them: each by its
		// smaller member first, and in the order of those.
		reps := make([]int, len(old[l-1].members))
		var pairs [][]hypergraph.CellID
		for j, ms := range old[l-1].members {
			reps[j] = -1
			var kept []hypergraph.CellID
			for _, m := range ms {
				if id := ids[m]; id >= 0 {
					kept = append(kept, hypergraph.CellID(id))
				}
			}
			if len(kept) > 0 {
				reps[j] = int(kept[0])
				slices.Sort(kept)
				pairs = append(pairs, kept)
			}
		}
		slices.SortFunc(pairs, func(a, b []hypergraph.CellID) int { return int(a[0] - b[0]) })
		if !reflect.DeepEqual(lv.cl.Members, pairs) {
			t.Fatalf("level %d: members differ from the surviving pairs", l)
		}
		clusterOf := make([]int32, finer.NumCells())
		for ci, ms := range lv.cl.Members {
			sum := 0
			for _, m := range ms {
				clusterOf[m] = int32(ci)
				sum += finer.CellArea(m)
			}
			if got := lv.st.CellArea(hypergraph.CellID(ci)); got != sum {
				t.Fatalf("level %d: cell %d has area %d, its members %d", l, ci, got, sum)
			}
		}
		if lv.st.TotalArea() != area {
			t.Fatalf("level %d: area %d, the remainder's %d", l, lv.st.TotalArea(), area)
		}
		if err := lv.st.CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		ids = make([]int32, len(reps))
		for j, rep := range reps {
			ids[j] = -1
			if rep >= 0 {
				ids[j] = clusterOf[rep]
			}
		}
	}

	// A retry on the same remainder coarsens afresh.
	retry, narrowed := coarsenedLevels(t, &r, &st, cfg)
	if narrowed != 0 {
		t.Fatalf("the retry narrowed %d levels", narrowed)
	}
	var fresh Runner
	if want, err := fresh.Run(&st, cfg); err != nil || !reflect.DeepEqual(retry, want) {
		t.Fatalf("the retry's result differs from a fresh Runner's (error %v)", err)
	}

	// Two Retargets with no cycle between drop the hierarchy.
	carveState(t, &st, retry.Assign)
	r.Retarget(&st)
	assign := make([]replication.Block, st.NumCells())
	for c := range assign {
		assign[c] = replication.Block(1 - c%4/3)
	}
	carveState(t, &st, assign)
	r.Retarget(&st)
	if _, narrowed := coarsenedLevels(t, &r, &st, remainderConfig(&st, 5)); narrowed != 0 {
		t.Fatalf("the cycle after two Retargets narrowed %d levels", narrowed)
	}
}
