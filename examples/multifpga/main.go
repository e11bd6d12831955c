// Multifpga takes a gate-level design through the whole flow: random
// gate netlist -> XC3000 technology mapping (verified functionally) ->
// cost-driven multi-FPGA partitioning, comparing the DAC'93-style
// baseline against partitioning with functional replication.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fpgapart/internal/core"
	"fpgapart/internal/netlist"
	"fpgapart/internal/techmap"
	"fpgapart/internal/topology"
)

func main() {
	// A 3000-gate sequential design.
	n, err := netlist.Random(netlist.RandomParams{
		Name: "soc", Gates: 3000, Inputs: 48, Outputs: 32, DffFrac: 0.18, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := n.Stats()
	fmt.Printf("design %s: %d gates (%d flip-flops), %d PIs, %d POs\n",
		n.Name, s.Gates, s.DFFs, s.Inputs, s.Outputs)

	m, err := techmap.Map(n, techmap.Options{Seed: 11, DistantPackFrac: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped: %d CLBs, %d IOBs, %d nets\n",
		m.Graph.NumCells(), m.Graph.NumTerminals(), m.Graph.NumNets())

	// Sanity: the mapped circuit behaves like the gate-level design.
	if err := verify(n, m); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mapping verified against gate-level simulation (64 random cycles)")

	for _, cfg := range []struct {
		label     string
		threshold int
	}{
		{"baseline ([3], no replication)", core.NoReplication},
		{"functional replication, T=1", 1},
	} {
		res, err := core.Partition(m.Graph, core.Options{
			Threshold: &cfg.threshold, Solutions: 20, Seed: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		sum := res.Summary
		fmt.Printf("\n%s:\n", cfg.label)
		fmt.Printf("  k=%d  cost=%.0f  CLB util=%.0f%%  IOB util=%.0f%%  replicated=%.1f%%\n",
			sum.K(), sum.DeviceCost(), 100*sum.AvgCLBUtil(), 100*sum.AvgIOBUtil(),
			sum.ReplicatedPct(res.SourceCells))
		for name, count := range sum.DeviceCounts() {
			fmt.Printf("  %d x %s\n", count, name)
		}
	}

	// The same design on a physical 3x4 mesh of device slots: each
	// solution's parts are placed on the slots with the least
	// hop-weighted interconnect, so parts that share many nets sit on
	// adjacent slots, and the routing check guarantees no board link is
	// oversubscribed.
	board, err := topology.ParseSpec("mesh:3x4:512")
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Partition(m.Graph, core.Options{
		Solutions: 20, Seed: 5, Board: board,
	})
	if err != nil {
		log.Fatal(err)
	}
	sum := res.Summary
	fmt.Printf("\nmesh board %s (%d slots, link capacity 512):\n", board.Name, board.Slots)
	fmt.Printf("  k=%d  cost=%.0f  hop-weighted interconnect=%d\n",
		sum.K(), sum.DeviceCost(), sum.TopoCost)
}

func verify(n *netlist.Netlist, m *techmap.Mapped) error {
	gateSim, err := netlist.NewSimulator(n)
	if err != nil {
		return err
	}
	mapSim, err := techmap.NewSimulator(m)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(1))
	for cyc := 0; cyc < 64; cyc++ {
		in := map[string]bool{}
		for _, pi := range n.Inputs {
			in[pi] = r.Intn(2) == 1
		}
		want, err := gateSim.Step(in)
		if err != nil {
			return err
		}
		got, err := mapSim.Step(in)
		if err != nil {
			return err
		}
		for k := range want {
			if got[k] != want[k] {
				return fmt.Errorf("cycle %d: output %s diverged", cyc, k)
			}
		}
	}
	return nil
}
