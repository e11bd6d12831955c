// Quickstart: build a small mapped circuit with the hypergraph
// builder, partition it into the XC3000 library, and print the Eq. 1 /
// Eq. 2 summary — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
)

func main() {
	// A synthetic 500-CLB circuit; swap in hypergraph.Read(...) to load
	// your own mapped netlist.
	g, err := bench.Generate(bench.Params{
		Name: "demo", Cells: 500, PrimaryIn: 40, PrimaryOut: 25, DFFs: 120,
		Clustering: 0.5, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %d CLBs, %d IOBs, %d flip-flops\n",
		g.Name, g.TotalArea(), g.NumTerminals(), g.NumDFF())

	res, err := core.Partition(g, core.Options{
		// Threshold is left nil: T = 1, functional replication for cells
		// with ψ ≥ 1.
		Solutions: 20, // randomized feasible solutions to explore
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Summary
	fmt.Printf("partitioned into k=%d devices, total cost %.0f N$\n", s.K(), s.DeviceCost())
	fmt.Printf("average CLB utilization %.0f%%, average IOB utilization %.0f%%\n",
		100*s.AvgCLBUtil(), 100*s.AvgIOBUtil())
	for i, p := range res.Parts {
		fmt.Printf("  P%-2d -> %-7s  %3d CLBs (%.0f%%)  %3d/%3d IOBs  %d replicas\n",
			i, p.Device.Name, p.Graph.TotalArea(),
			100*p.Device.Utilization(p.Graph.TotalArea()),
			p.Graph.NumTerminals(), p.Device.IOBs, p.Replicas)
	}
}
