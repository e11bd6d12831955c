package core

import (
	"reflect"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
)

func TestPartitionDefaults(t *testing.T) {
	c, _ := bench.ByName("c3540")
	g := c.Small(2).MustBuild()
	res, err := Partition(g, Options{Solutions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Summary.Feasible() {
		t.Fatalf("infeasible: %v", res.Summary)
	}
	if res.Summary.DeviceCost() <= 0 {
		t.Fatal("zero cost")
	}
}

func TestPartitionNoReplication(t *testing.T) {
	c, _ := bench.ByName("s5378")
	g := c.Small(2).MustBuild()
	off := NoReplication
	res, err := Partition(g, Options{Threshold: &off, Solutions: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ReplicatedCells() != 0 {
		t.Fatal("baseline must not replicate")
	}
}

func TestMinCutBipartition(t *testing.T) {
	c, _ := bench.ByName("s9234")
	g := c.Small(2).MustBuild()
	stPlain, resPlain, err := MinCutBipartition(g, BipartitionOptions{Threshold: NoReplication, Seed: 4, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	stRepl, resRepl, err := MinCutBipartition(g, BipartitionOptions{Threshold: 0, Seed: 4, Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := stPlain.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := stRepl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if resRepl.Cut > resPlain.Cut {
		t.Fatalf("replication worsened the cut: %d > %d", resRepl.Cut, resPlain.Cut)
	}
}

func TestPartitionWithRefine(t *testing.T) {
	c, _ := bench.ByName("s13207")
	g := c.Small(2).MustBuild()
	opts := Options{Solutions: 4, Seed: 5}
	plain, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second, identical search: Refine edits its result's parts in
	// place, and plain must keep the unrefined ones.
	refined, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kway.Refine(g, &refined, opts); err != nil {
		t.Fatal(err)
	}
	if refined.Summary.AvgIOBUtil() > plain.Summary.AvgIOBUtil()+1e-9 {
		t.Fatalf("refine worsened IOB util: %.3f vs %.3f",
			refined.Summary.AvgIOBUtil(), plain.Summary.AvgIOBUtil())
	}
	if !refined.Summary.Feasible() {
		t.Fatal("refined solution infeasible")
	}
}

// Refine rebuilds the summary of a solution it improves, but the
// search's fold statistics (cost spread, stop reason, degradation,
// resume) still describe that search and must survive.
func TestRefineKeepsFoldStats(t *testing.T) {
	c, _ := bench.ByName("c5315")
	g := c.MustBuild()
	opts := Options{Solutions: 3, Seed: 3}
	plain, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kway.Refine(g, &refined, opts); err != nil {
		t.Fatal(err)
	}
	if refined.Summary.AvgIOBUtil() >= plain.Summary.AvgIOBUtil() {
		t.Fatalf("precondition: refine accepted no pair (IOB util %.4f vs %.4f)",
			refined.Summary.AvgIOBUtil(), plain.Summary.AvgIOBUtil())
	}
	if !reflect.DeepEqual(refined.FoldStats, plain.FoldStats) {
		t.Fatalf("refine changed the fold statistics:\n got  %+v\n want %+v", refined.FoldStats, plain.FoldStats)
	}
}
