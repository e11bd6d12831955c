// Tsweep sweeps the threshold replication potential T on one benchmark
// circuit, showing the trade-off the paper's Tables IV-VII quantify:
// smaller T admits more replication, trading CLB headroom for fewer
// cut nets and lower device cost / IOB utilization.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/report"
)

func main() {
	name := flag.String("circuit", "s13207", "suite circuit to sweep")
	solutions := flag.Int("solutions", 15, "feasible solutions per setting")
	scale := flag.Int("scale", 1, "divide the circuit size by this factor")
	flag.Parse()

	c, ok := bench.ByName(*name)
	if !ok {
		log.Fatalf("unknown circuit %q", *name)
	}
	c = c.Small(*scale)
	g, err := c.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweeping T on %s (%d CLBs, %d IOBs)\n", c.Name, g.TotalArea(), g.NumTerminals())

	t := report.NewTable("Threshold sweep",
		"T", "k", "Cost", "CLB util", "IOB util", "Replicated", "Repl. %")
	settings := []int{core.NoReplication, 0, 1, 2, 3, 5}
	for _, T := range settings {
		label := fmt.Sprintf("%d", T)
		if T == core.NoReplication {
			label = "off"
		}
		res, err := core.Partition(g, core.Options{Threshold: &T, Solutions: *solutions, Seed: 3})
		if err != nil {
			t.Row(label, "fail", err.Error())
			continue
		}
		s := res.Summary
		t.Row(label, s.K(), fmt.Sprintf("%.0f", s.DeviceCost()),
			fmt.Sprintf("%.0f%%", 100*s.AvgCLBUtil()),
			fmt.Sprintf("%.0f%%", 100*s.AvgIOBUtil()),
			s.ReplicatedCells(),
			fmt.Sprintf("%.1f%%", s.ReplicatedPct(res.SourceCells)))
	}
	t.Render(os.Stdout)
	fmt.Println("T=off reproduces the DAC'93 baseline; T=0 allows maximum replication (Eq. 6).")
}
