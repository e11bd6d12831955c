package kway_test

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/metrics"
)

func refined(t *testing.T, threshold int, seed int64) (int, metrics.Solution, metrics.Solution) {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "ref", Cells: 1100, PrimaryIn: 30, PrimaryOut: 20, DFFs: 150,
		Clustering: 0.55, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := kway.Options{Library: library.XC3000(), Threshold: &threshold, Solutions: 4, Seed: seed}
	res, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Summary
	n, err := kway.Refine(g, &res, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The refined result must still verify completely.
	if err := res.Verify(g); err != nil {
		t.Fatalf("refined result fails verification: %v", err)
	}
	return n, before, res.Summary
}

func TestRefineKeepsFeasibilityAndNeverWorsens(t *testing.T) {
	improvedSomewhere := false
	for seed := int64(1); seed <= 4; seed++ {
		for _, th := range []int{fm.NoReplication, 1} {
			n, before, after := refined(t, th, seed)
			if !after.Feasible() {
				t.Fatalf("seed %d T=%d: refined solution infeasible", seed, th)
			}
			if after.AvgIOBUtil() > before.AvgIOBUtil()+1e-9 {
				t.Fatalf("seed %d T=%d: refine worsened IOB util %.3f -> %.3f",
					seed, th, before.AvgIOBUtil(), after.AvgIOBUtil())
			}
			if after.DeviceCost() != before.DeviceCost() {
				t.Fatalf("seed %d T=%d: refine changed devices", seed, th)
			}
			if n > 0 {
				improvedSomewhere = true
				if after.AvgIOBUtil() >= before.AvgIOBUtil() {
					t.Fatalf("seed %d T=%d: %d accepted refinements but no IOB gain", seed, th, n)
				}
			}
		}
	}
	if !improvedSomewhere {
		t.Log("note: no pair refinement fired on these seeds (acceptable, but unusual)")
	}
}
