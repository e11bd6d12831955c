package multilevel

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// circuit builds a deterministic synthetic mapped circuit.
func circuit(t testing.TB, cells int, seed int64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Cells: cells, PrimaryIn: 24, PrimaryOut: 16, Seed: seed, Clustering: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// balancedConfig is the standalone bipartition configuration used
// across the package tests: an equal split with eps slack.
func balancedConfig(g *hypergraph.Graph, eps float64, seed int64) Config {
	minA, maxA := fm.Balance(g.TotalArea(), eps)
	return Config{
		Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: seed},
		TargetArea: g.TotalArea() / 2,
	}
}

// fresh runs one V-cycle on g with a new Runner and a new state.
func fresh(g *hypergraph.Graph, cfg Config) (Result, error) {
	st, err := replication.NewState(g, make([]replication.Block, g.NumCells()))
	if err != nil {
		return Result{}, err
	}
	return new(Runner).Run(st, cfg)
}

func TestRunProducesValidBipartition(t *testing.T) {
	g := circuit(t, 1200, 7)
	cfg := balancedConfig(g, 0.1, 3)
	res, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != g.NumCells() {
		t.Fatalf("assignment over %d cells, graph has %d", len(res.Assign), g.NumCells())
	}
	// The reported cut and areas must agree with an independent state
	// built from the returned assignment.
	st, err := replication.NewState(g, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != res.Cut {
		t.Fatalf("reported cut %d, recomputed %d", res.Cut, st.CutSize())
	}
	if st.Area(0) != res.Area[0] || st.Area(1) != res.Area[1] {
		t.Fatalf("reported areas %v, recomputed [%d %d]", res.Area, st.Area(0), st.Area(1))
	}
	if res.Area[0] < cfg.MinArea[0] || res.Area[0] > cfg.MaxArea[0] ||
		res.Area[1] < cfg.MinArea[1] || res.Area[1] > cfg.MaxArea[1] {
		t.Fatalf("areas %v outside bounds min=%v max=%v", res.Area, cfg.MinArea, cfg.MaxArea)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("expected a multi-level hierarchy on %d cells, got %d levels", g.NumCells(), len(res.Levels))
	}
	// Levels run coarsest-first down to the finest graph.
	last := res.Levels[len(res.Levels)-1]
	if last.Level != 0 || last.Cells != g.NumCells() {
		t.Fatalf("finest level entry %+v does not match input graph (%d cells)", last, g.NumCells())
	}
	for _, s := range res.Levels {
		if s.CutRefined > s.CutProjected {
			t.Fatalf("level %d refinement worsened cut: %d > %d", s.Level, s.CutRefined, s.CutProjected)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := circuit(t, 800, 9)
	cfg := balancedConfig(g, 0.1, 5)
	a, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut || a.Area != b.Area {
		t.Fatalf("results diverged run to run: %d/%v vs %d/%v", a.Cut, a.Area, b.Cut, b.Area)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment diverged at cell %d", i)
		}
	}
}

// With widening disabled (Slack < 0) the area window is identical at
// every level: projection preserves areas exactly, FM only makes
// in-window moves, so repair never fires and the refined cut is
// monotone non-increasing down the entire V-cycle.
func TestMonotoneCutAcrossLevels(t *testing.T) {
	g := circuit(t, 1500, 11)
	cfg := balancedConfig(g, 0.2, 7)
	cfg.Slack = -1
	res, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairMoves != 0 {
		t.Fatalf("repair fired %d times despite identical windows at every level", res.RepairMoves)
	}
	prev := -1
	for _, s := range res.Levels {
		if s.CutRefined > s.CutProjected {
			t.Fatalf("level %d: refined cut %d above projected %d", s.Level, s.CutRefined, s.CutProjected)
		}
		if prev >= 0 && s.CutRefined > prev {
			t.Fatalf("cut increased across levels: %d after %d (level %d)", s.CutRefined, prev, s.Level)
		}
		prev = s.CutRefined
	}
}

func TestSmallGraphSkipsCoarsening(t *testing.T) {
	g := circuit(t, 60, 3)
	cfg := balancedConfig(g, 0.15, 1)
	res, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("expected single-level run on %d cells, got %d levels", g.NumCells(), len(res.Levels))
	}
	if res.Levels[0].Level != 0 {
		t.Fatalf("single level should be the finest, got %d", res.Levels[0].Level)
	}
}

func TestInfeasibleWindowRejected(t *testing.T) {
	g := circuit(t, 100, 3)
	total := g.TotalArea()
	_, err := fresh(g, Config{Config: fm.Config{
		MinArea: [2]int{total, total}, // both blocks demand the whole area
		MaxArea: [2]int{total, total},
	}})
	if err == nil {
		t.Fatal("expected an infeasible-window error")
	}
}
