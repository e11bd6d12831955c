// Blifflow demonstrates the interchange path: a BLIF design (written
// by some external synthesis tool) is parsed, logic-optimized,
// technology-mapped into XC3000 CLBs and partitioned — the complete
// flow the MCNC benchmarks of the paper would take.
package main

import (
	"bytes"
	"fmt"
	"log"

	"fpgapart/internal/core"
	"fpgapart/internal/netlist"
	"fpgapart/internal/techmap"
)

func main() {
	// Pretend an external tool handed us a BLIF file: synthesize one
	// from a 12-bit array multiplier plus a counter, glued by buffers
	// that the optimizer should sweep.
	mul, err := netlist.ArrayMultiplier(12)
	if err != nil {
		log.Fatal(err)
	}
	var blif bytes.Buffer
	if err := netlist.WriteBLIF(&blif, mul); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BLIF in: %d bytes\n", blif.Len())

	n, err := netlist.ReadBLIF(&blif)
	if err != nil {
		log.Fatal(err)
	}
	s := n.Stats()
	fmt.Printf("parsed %s: %d gates, %d nets\n", n.Name, s.Gates, s.Nets)

	opt, err := netlist.Optimize(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized: %d -> %d gates\n", len(n.Gates), len(opt.Gates))

	m, err := techmap.Map(opt, techmap.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped: %d CLBs, %d IOBs\n", m.Graph.NumCells(), m.Graph.NumTerminals())

	// Spot-check the flow end to end: 0xABC * 0xDEF through the mapped
	// circuit.
	sim, err := techmap.NewSimulator(m)
	if err != nil {
		log.Fatal(err)
	}
	in := map[string]bool{}
	a, b := uint64(0xABC), uint64(0xDEF)
	for i := 0; i < 12; i++ {
		in[fmt.Sprintf("a%d", i)] = a&(1<<uint(i)) != 0
		in[fmt.Sprintf("b%d", i)] = b&(1<<uint(i)) != 0
	}
	out, err := sim.Step(in)
	if err != nil {
		log.Fatal(err)
	}
	var p uint64
	for i := 0; i < 24; i++ {
		if out[fmt.Sprintf("p%d", i)] {
			p |= 1 << uint(i)
		}
	}
	fmt.Printf("mapped circuit computes 0x%X * 0x%X = 0x%X (want 0x%X)\n", a, b, p, a*b)
	if p != a*b {
		log.Fatal("flow broke the multiplier")
	}

	res, err := core.Partition(m.Graph, core.Options{Solutions: 10, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned: %v\n", res.Summary)
	for name, count := range res.Summary.DeviceCounts() {
		fmt.Printf("  %d x %s\n", count, name)
	}
}
