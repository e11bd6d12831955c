package multilevel

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/oracle"
	"fpgapart/internal/replication"
)

// oracleBounds mirrors the loose bounds the oracle differential tests
// use: eps asymmetry with replication headroom clamped to the total.
func oracleBounds(g *hypergraph.Graph, eps float64) (minA, maxA [2]int) {
	minA, maxA = fm.Balance(g.TotalArea(), eps)
	maxA = [2]int{maxA[0] * 13 / 10, maxA[1] * 13 / 10}
	for b := 0; b < 2; b++ {
		if maxA[b] > g.TotalArea() {
			maxA[b] = g.TotalArea()
		}
		if maxA[b] < minA[b] {
			maxA[b] = minA[b]
		}
	}
	return minA, maxA
}

// TestMultilevelNeverBeatsOracle sweeps the exhaustive-scale corpus:
// the V-cycle (forced through real coarsening via a tiny MinCells) can
// never beat the exhaustive optimum, and must hit it on most of the
// corpus — a multilevel pass that loses the optimum everywhere would
// signal broken projection.
func TestMultilevelNeverBeatsOracle(t *testing.T) {
	gs, err := oracle.Corpus(oracle.CorpusParams{Cases: 120})
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for gi, g := range gs {
		minA, maxA := oracleBounds(g, 0.30)
		opt, err := oracle.MinCut(g, oracle.Config{MinArea: minA, MaxArea: maxA})
		if err != nil {
			t.Fatalf("case %d (%d cells): %v", gi, g.NumCells(), err)
		}
		res, err := fresh(g, Config{
			Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: int64(gi)},
			TargetArea: g.TotalArea() / 2,
			MinCells:   3, MaxClusterArea: 3, // force real coarsening even at oracle scale
			Starts: 8,
		})
		if err != nil {
			t.Fatalf("case %d: multilevel: %v", gi, err)
		}
		if res.Cut < opt.Cut {
			t.Fatalf("case %d (%s): multilevel cut %d beats exhaustive optimum %d — one of them is wrong",
				gi, g.Name, res.Cut, opt.Cut)
		}
		// The returned assignment must reproduce the claimed cut.
		st, err := replication.NewState(g, res.Assign)
		if err != nil {
			t.Fatalf("case %d: %v", gi, err)
		}
		if st.CutSize() != res.Cut {
			t.Fatalf("case %d: reported cut %d, recomputed %d", gi, res.Cut, st.CutSize())
		}
		total++
		if res.Cut == opt.Cut {
			hits++
		}
	}
	// Forcing contraction on 4–10-cell graphs is deliberately
	// adversarial (a cluster cap of 3 can weld optimal-cut cells
	// together), so the bar sits below flat FM's 80%: the observed rate
	// is ~69%.
	rate := float64(hits) / float64(total)
	t.Logf("multilevel hit the exhaustive optimum on %d/%d corpus cases (%.1f%%)", hits, total, 100*rate)
	if rate < 0.65 {
		t.Fatalf("multilevel optimality rate %.1f%% below the 65%% acceptance bar", 100*rate)
	}
}

// TestMultilevelTracksFlatFM compares the V-cycle against flat
// multi-start FM on medium instances with the same attempt budget: the
// multilevel cut may wander but must stay within a fixed tolerance of
// flat, and usually wins.
func TestMultilevelTracksFlatFM(t *testing.T) {
	wins, rounds := 0, 0
	for _, seed := range []int64{2, 5, 8} {
		g := circuit(t, 2000, seed)
		minA, maxA := fm.Balance(g.TotalArea(), 0.1)
		_, flat, err := fm.Bipartition(g, fm.Options{
			Config: fm.Config{
				MinArea: minA, MaxArea: maxA,
				Threshold: fm.NoReplication, Seed: seed,
			},
			Starts: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := fresh(g, Config{
			Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: seed},
			TargetArea: g.TotalArea() / 2,
			Starts:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Fixed tolerance: multilevel may lose at most 20% + 2 nets.
		if limit := flat.Cut + flat.Cut/5 + 2; ml.Cut > limit {
			t.Errorf("seed %d: multilevel cut %d worse than flat %d beyond tolerance %d",
				seed, ml.Cut, flat.Cut, limit)
		}
		rounds++
		if ml.Cut <= flat.Cut {
			wins++
		}
	}
	t.Logf("multilevel matched or beat flat FM on %d/%d instances", wins, rounds)
	if wins == 0 {
		t.Fatal("multilevel lost to flat FM on every instance — coarsening is not helping")
	}
}

// TestLargeInstanceMultilevelBeatsFlat is the acceptance-scale run: a
// fixed-seed 10⁵-cell Rent instance, flat FM and the V-cycle on the
// same single-start budget. Multilevel must produce a cut no worse
// than flat while staying CI-feasible.
func TestLargeInstanceMultilevelBeatsFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10⁵-cell instance")
	}
	g, err := bench.GenerateRent(bench.RentParams{
		Cells: 100_000, PrimaryIn: 200, PrimaryOut: 100, Rent: 0.65, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	minA, maxA := fm.Balance(g.TotalArea(), 0.1)
	_, flat, err := fm.Bipartition(g, fm.Options{
		Config: fm.Config{
			MinArea: minA, MaxArea: maxA,
			Threshold: fm.NoReplication, Seed: 1,
		},
		Starts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := fresh(g, Config{
		Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: 1},
		TargetArea: g.TotalArea() / 2,
		Starts:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("100k cells: flat cut %d, multilevel cut %d over %d levels", flat.Cut, ml.Cut, len(ml.Levels))
	if ml.Cut > flat.Cut {
		t.Fatalf("multilevel cut %d worse than flat FM %d on the same budget", ml.Cut, flat.Cut)
	}
}

// permuteNames returns a structurally identical copy of g with every
// cell and net renamed. The engine keys on indices, never names, so
// fixed-seed results must be byte-identical.
func permuteNames(t *testing.T, g *hypergraph.Graph) *hypergraph.Graph {
	t.Helper()
	b := hypergraph.NewBuilder(g.Name + "-renamed")
	ids := make([]hypergraph.NetID, g.NumNets())
	for ni := range g.Nets {
		name := g.Nets[ni].Name + "x"
		switch g.Nets[ni].Ext {
		case hypergraph.ExtIn:
			ids[ni] = b.InputNet(name)
		case hypergraph.ExtOut:
			ids[ni] = b.OutputNet(name)
		default:
			ids[ni] = b.Net(name)
		}
	}
	remap := func(nets []hypergraph.NetID) []hypergraph.NetID {
		out := make([]hypergraph.NetID, len(nets))
		for i, n := range nets {
			out[i] = ids[n]
		}
		return out
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		b.AddCell(hypergraph.CellSpec{
			Name:    c.Name + "x",
			Inputs:  remap(c.Inputs),
			Outputs: remap(c.Outputs),
			Dep:     c.Dep,
			Area:    c.Area,
			DFFs:    c.DFFs,
			Replica: c.Replica,
		})
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRelabelInvariance is the metamorphic check: renaming every cell
// and net (same indices, same structure) must not change the V-cycle's
// result at all.
func TestRelabelInvariance(t *testing.T) {
	g := circuit(t, 900, 13)
	cfg := balancedConfig(g, 0.1, 4)
	a, err := fresh(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh(permuteNames(t, g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut || a.Area != b.Area {
		t.Fatalf("renaming changed the result: cut %d/%v vs %d/%v", a.Cut, a.Area, b.Cut, b.Area)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("renaming changed the assignment at cell %d", i)
		}
	}
}
