package hypergraph_test

import (
	"math/rand"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/bitset"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// refPsi is Eq. 4 written out literally: for each output, the inputs
// adjacent to it and to no other output, summed over outputs.
func refPsi(c *hypergraph.Cell) int {
	m := len(c.Outputs)
	if m <= 1 {
		return 0
	}
	psi := 0
	for i := 0; i < m; i++ {
		only := c.Dep[i].Clone()
		for j := 0; j < m; j++ {
			if j != i {
				only = only.And(c.Dep[j].Not())
			}
		}
		psi += only.Norm()
	}
	return psi
}

// TestReplicationPotentialMatchesEq4 compares the word-wise ψ with the
// literal Eq. 4 on random cells of 1–32 outputs and 0–200 inputs, so
// adjacency vectors span up to four words, at densities from sparse to
// nearly full.
func TestReplicationPotentialMatchesEq4(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		m, n := 1+r.Intn(32), r.Intn(201)
		density := r.Float64()
		c := hypergraph.Cell{Inputs: make([]hypergraph.NetID, n), Outputs: make([]hypergraph.NetID, m), Dep: make([]bitset.Vector, m)}
		for i := range c.Dep {
			c.Dep[i] = bitset.New(n)
			for j := 0; j < n; j++ {
				if r.Float64() < density {
					c.Dep[i].Set(j)
				}
			}
		}
		if got, want := c.ReplicationPotential(), refPsi(&c); got != want {
			t.Fatalf("trial %d (%d outputs, %d inputs, density %.2f): ψ = %d, Eq. 4 gives %d", trial, m, n, density, got, want)
		}
	}
}

// TestStatePsiMatchesEq4 checks the ψ a replication state caches for
// every cell of a bench circuit against the literal Eq. 4.
func TestStatePsiMatchesEq4(t *testing.T) {
	c, ok := bench.ByName("s9234")
	if !ok {
		t.Fatal("bench circuit s9234 missing")
	}
	g := build(t, c)
	st, err := replication.NewState(g, make([]replication.Block, g.NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for ci := range g.Cells {
		cell := &g.Cells[ci]
		if len(cell.Outputs) <= 1 {
			continue
		}
		multi++
		// A multi-output cell may replicate exactly at thresholds up to
		// its ψ.
		c, psi := hypergraph.CellID(ci), refPsi(cell)
		if !st.CanReplicate(c, psi) || st.CanReplicate(c, psi+1) {
			t.Fatalf("cell %q: the state's ψ is not Eq. 4's %d", cell.Name, psi)
		}
	}
	if multi == 0 {
		t.Fatal("circuit has no multi-output cells; the check is vacuous")
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
