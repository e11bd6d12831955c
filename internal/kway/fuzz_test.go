package kway_test

import (
	"errors"
	"math/rand"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
)

// FuzzKway drives the full k-way search over fuzzed (seed, threshold,
// size) triples with in-loop verification enabled. Two failure classes
// matter: a panic anywhere in the search, and a *VerificationError —
// a structurally inconsistent carve or solution that the randomized
// search accepted. Ordinary infeasibility (the fuzzed circuit simply
// does not fit the forced library) is skipped. On odd seeds the
// circuit gets dependency-free input pins and with them dead nets (see
// freePins), which a generator circuit lacks and the carve state leaves
// out; on seeds divisible by 3 some cells are named like replicas (see
// replicaNames).
func FuzzKway(f *testing.F) {
	f.Add(int64(1), int8(1), uint8(40))
	f.Add(int64(7), int8(-1), uint8(12))
	f.Add(int64(42), int8(0), uint8(64))
	f.Add(int64(9), int8(0), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, threshold int8, cells uint8) {
		n := 8 + int(cells)%57           // 8..64 cells
		th := (int(threshold)%5+5)%5 - 1 // -1..3; -1 is fm.NoReplication
		g, err := bench.Generate(bench.Params{
			Name: "fuzz", Cells: n, PrimaryIn: 5, PrimaryOut: 3,
			Clustering: float64(n%4) * 0.2, Seed: seed,
		})
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		if seed%2 != 0 {
			freePins(g, seed)
		}
		if seed%3 == 0 {
			replicaNames(g, seed)
		}
		// A small device forces multi-way splits on all but the tiniest
		// circuits.
		lib, err := library.Custom(library.Device{
			Name: "fuzz-dev", CLBs: 24, IOBs: 40, Price: 50, LowUtil: 0, HighUtil: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := kway.Partition(g, kway.Options{
			Library: lib, Threshold: &th, Solutions: 2, Seed: seed, Verify: true,
		})
		if err != nil {
			var verr *kway.VerificationError
			if errors.As(err, &verr) {
				t.Fatalf("cells=%d T=%d seed=%d: search accepted an inconsistent partition: %v", n, th, seed, err)
			}
			t.Skip() // infeasible under the forced library
		}
		if err := res.Verify(g); err != nil {
			t.Fatalf("cells=%d T=%d seed=%d: returned solution fails verification: %v", n, th, seed, err)
		}
	})
}

// freePins clears one dependency bit in about a quarter of g's cells,
// keeping every output row non-empty. A cleared bit of a single-output
// cell leaves its input pin dependency-free, and a net read only by
// such pins is dead: no part holding its driver reads it.
func freePins(g *hypergraph.Graph, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for ci := range g.Cells {
		c := &g.Cells[ci]
		row := c.Dep[r.Intn(len(c.Dep))]
		if r.Intn(4) != 0 || row.Norm() < 2 {
			continue
		}
		for j, n := range c.Inputs {
			if n != hypergraph.NilNet && row.Get(j) {
				row.Clear(j)
				break
			}
		}
	}
}

// replicaNames renames about a quarter of g's cells to an earlier
// cell's name plus "$r", the name a replica of that cell would get,
// skipping a name some cell already has.
func replicaNames(g *hypergraph.Graph, seed int64) {
	r := rand.New(rand.NewSource(seed))
	names := make(map[string]bool, len(g.Cells))
	for ci := range g.Cells {
		names[g.Cells[ci].Name] = true
	}
	for ci := 1; ci < len(g.Cells); ci++ {
		if r.Intn(4) != 0 {
			continue
		}
		name := g.Cells[r.Intn(ci)].Name + "$r"
		if names[name] {
			continue
		}
		delete(names, g.Cells[ci].Name)
		names[name] = true
		g.Cells[ci].Name = name
	}
}
