package core_test

import (
	"fmt"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
)

// ExamplePartition partitions a synthetic benchmark circuit into the
// XC3000 library with functional replication at threshold T = 1.
func ExamplePartition() {
	c, _ := bench.ByName("c3540")
	g, err := c.Build()
	if err != nil {
		panic(err)
	}
	res, err := core.Partition(g, core.Options{Solutions: 5, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("k=%d feasible=%v\n", res.Summary.K(), res.Verify(g) == nil)
	// Output: k=2 feasible=true
}

// ExampleMinCutBipartition runs the paper's first experiment on one
// circuit: equal-sized min-cut bipartitioning with and without
// functional replication.
func ExampleMinCutBipartition() {
	c, _ := bench.ByName("s5378")
	g, err := c.Build()
	if err != nil {
		panic(err)
	}
	_, plain, _ := core.MinCutBipartition(g, core.BipartitionOptions{
		Threshold: core.NoReplication, Seed: 7, Starts: 2,
	})
	st, repl, _ := core.MinCutBipartition(g, core.BipartitionOptions{
		Threshold: 0, Seed: 7, Starts: 2,
	})
	fmt.Printf("replication cut <= plain cut: %v\n", repl.Cut <= plain.Cut)
	fmt.Printf("replicated cells tracked: %v\n", st.ReplicatedCount() >= 0)
	// Output:
	// replication cut <= plain cut: true
	// replicated cells tracked: true
}

// ExamplePartition_customLibrary partitions against a user-defined
// two-device library.
func ExamplePartition_customLibrary() {
	lib, _ := library.Custom(
		library.Device{Name: "small", CLBs: 64, IOBs: 80, Price: 10, HighUtil: 0.95},
		library.Device{Name: "big", CLBs: 256, IOBs: 160, Price: 30, HighUtil: 0.95},
	)
	g, _ := bench.Generate(bench.Params{Cells: 300, PrimaryIn: 16, PrimaryOut: 10, Seed: 3, Clustering: 0.5})
	res, err := core.Partition(g, core.Options{Library: lib, Solutions: 5, Seed: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("feasible=%v cost>0=%v\n", res.Verify(g) == nil, res.Summary.DeviceCost() > 0)
	// Output: feasible=true cost>0=true
}

// ExampleOptions_threshold shows the DAC'93 baseline versus functional
// replication on the same circuit. An unset Threshold means T = 1; an
// explicit one is taken literally.
func ExampleOptions_threshold() {
	c, _ := bench.ByName("s9234")
	g, err := c.Build()
	if err != nil {
		panic(err)
	}
	off := core.NoReplication
	base, _ := core.Partition(g, core.Options{Threshold: &off, Solutions: 4, Seed: 2})
	repl, _ := core.Partition(g, core.Options{Solutions: 4, Seed: 2})
	fmt.Printf("baseline replicates nothing: %v\n", base.Summary.ReplicatedCells() == 0)
	fmt.Printf("both feasible: %v\n", base.Verify(g) == nil && repl.Verify(g) == nil)
	// Output:
	// baseline replicates nothing: true
	// both feasible: true
}

var _ = hypergraph.Graph{} // keep the import for doc cross-reference
