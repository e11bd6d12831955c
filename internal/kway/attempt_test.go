package kway

import (
	"context"
	"math/bits"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
)

// A warm worker's attempt allocates for its parts alone, however long
// its carve chain: the parts slice as it grows and one copy of their
// cell lists. The carve state, its re-targets and the FM runs reuse the
// worker's storage.
func TestWarmAttemptAllocs(t *testing.T) {
	c, _ := bench.ByName("c5315")
	g := build(t, c)
	zero := 0
	opts, err := Options{Threshold: &zero}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var sc carveScratch
	attempt := func() []Part {
		parts, err := partitionOnce(context.Background(), g, opts, 0, 3, &sc)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	k := len(attempt())
	allocs := testing.AllocsPerRun(3, func() { attempt() })
	// append doubles the parts slice: about log2(k) growths, plus the
	// cell lists' copy.
	limit := float64(bits.Len(uint(k)) + 2)
	t.Logf("%d parts: %v allocations per warm attempt", k, allocs)
	if k < 20 || allocs > limit {
		t.Fatalf("%d parts, %v allocations per warm attempt; want at least 20 parts and at most %v allocations", k, allocs, limit)
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
