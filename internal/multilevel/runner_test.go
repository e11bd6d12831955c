package multilevel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// randomNetWeights draws a weight table over g's net names, the form
// kway's board carves hand the V-cycle.
func randomNetWeights(g *hypergraph.Graph, seed int64) map[string]replication.NetWeights {
	r := rand.New(rand.NewSource(seed))
	w := make(map[string]replication.NetWeights, g.NumNets())
	for ni := range g.Nets {
		w[g.Nets[ni].Name] = replication.NetWeights{
			Alone: [2]int32{int32(r.Intn(3)), int32(r.Intn(3))},
			Both:  int32(1 + r.Intn(4)),
		}
	}
	return w
}

// A weighted V-cycle reports, picks its coarsest start by and refines
// the objective its FM runs minimize: Result.Cut is the weighted cost of
// Result.Assign on a fresh state with the same weights, pinned or not,
// and no level's refinement raises it.
func TestWeightedCycleReportsObjective(t *testing.T) {
	g := circuit(t, 1200, 21)
	for _, pinned := range []bool{false, true} {
		cfg := balancedConfig(g, 0.1, 1)
		cfg.PinExternal = pinned
		cfg.NetWeights = randomNetWeights(g, 0)
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := replication.NewStatePinned(g, res.Assign, pinned)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]replication.NetWeights, g.NumNets())
		for ni := range g.Nets {
			w[ni] = cfg.NetWeights[g.Nets[ni].Name]
		}
		if err := st.SetNetWeights(w); err != nil {
			t.Fatal(err)
		}
		if res.Cut != st.Objective() {
			t.Fatalf("pinned=%v: Result.Cut %d, objective of Result.Assign %d (cut %d)", pinned, res.Cut, st.Objective(), st.CutSize())
		}
		for _, s := range res.Levels {
			if s.CutRefined > s.CutProjected {
				t.Fatalf("pinned=%v level %d: refined %d above projected %d", pinned, s.Level, s.CutRefined, s.CutProjected)
			}
		}
	}
}

// Reuse is invisible: one Runner fed a sequence of graphs (large, one
// too small to coarsen, the large one again) under flat, pinned and
// weighted objectives, one and two coarsest workers and both FM
// engines returns exactly what a fresh Run returns every time. A stale
// buffer, weight table or layout key carried from the previous cycle
// would surface as a diverging result.
func TestRunnerMatchesFresh(t *testing.T) {
	large, small := circuit(t, 1200, 21), circuit(t, 80, 22)
	var r Runner
	for gi, g := range []*hypergraph.Graph{large, small, large} {
		for _, mode := range []string{"flat", "pinned", "weighted"} {
			for _, workers := range []int{1, 2} {
				for _, refine := range []int{0, 2} {
					name := fmt.Sprintf("graph%d/%s/workers=%d/refine=%d", gi, mode, workers, refine)
					cfg := balancedConfig(g, 0.1, int64(gi+1))
					cfg.Workers, cfg.RefineWorkers = workers, refine
					cfg.PinExternal = mode == "pinned"
					if mode == "weighted" {
						cfg.NetWeights = randomNetWeights(g, int64(gi))
					}
					want, err := Run(g, cfg)
					if err != nil {
						t.Fatalf("%s: fresh: %v", name, err)
					}
					got, err := r.Run(g, cfg)
					if err != nil {
						t.Fatalf("%s: warm: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: warm runner result %+v, fresh %+v", name, got.Levels, want.Levels)
					}
				}
			}
		}
	}
}

// A warm Runner's second cycle on the same graph lays out no state or
// FM storage: what it still allocates is coarsening's contracted
// graphs, one projected assignment per level, the coarsest search's
// plumbing and the result. Building a replication state or an FM
// runner per level, as a one-shot cycle does, exceeds the bound.
func TestRunnerWarmAllocs(t *testing.T) {
	g := circuit(t, 1500, 23)
	cfg := balancedConfig(g, 0.1, 3)
	cfg.Starts = 1
	cfg = cfg.withDefaults()
	var r Runner
	res, err := r.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	levels := len(res.Levels)
	coarsening := testing.AllocsPerRun(3, func() { coarsen(g, cfg, cfg.TargetArea) })
	warm := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d levels: coarsening %v allocs, warm cycle %v, one-shot cycle %v", levels, coarsening, warm, fresh)
	if limit := coarsening + float64(4*levels+32); warm > limit {
		t.Fatalf("warm cycle allocates %v times, over coarsening's %v plus %d for %d levels", warm, coarsening, 4*levels+32, levels)
	}
}
