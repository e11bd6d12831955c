package core

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
)

func TestPartitionDefaults(t *testing.T) {
	c, _ := bench.ByName("c3540")
	g := build(t, c.Small(2))
	res, err := Partition(g, Options{Solutions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	if res.Summary.DeviceCost() <= 0 {
		t.Fatal("zero cost")
	}
}

func TestPartitionNoReplication(t *testing.T) {
	c, _ := bench.ByName("s5378")
	g := build(t, c.Small(2))
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
	g := build(t, c.Small(2))
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

// build builds the benchmark circuit c, failing tb on an error.
func build(tb testing.TB, c bench.Circuit) *hypergraph.Graph {
	tb.Helper()
	g, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
