// Table-driven end-to-end tests of the partition verifier: positive
// checks on real kway results and one negative case per violation
// class, each asserting that its specific check is the one that fires.
// The tests live in an external package because kway itself imports
// verify for its in-loop Options.Verify mode.
package verify_test

import (
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/metrics"
	"fpgapart/internal/verify"
)

func partitioned(t *testing.T, threshold int, seed int64) (*hypergraph.Graph, kway.Result) {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "vfy", Cells: 350, PrimaryIn: 20, PrimaryOut: 12, DFFs: 60,
		Clustering: 0.55, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kway.Partition(g, kway.Options{
		Library: library.XC3000(), Threshold: &threshold, Solutions: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func toParts(res kway.Result) []verify.Part {
	out := make([]verify.Part, len(res.Parts))
	for i, p := range res.Parts {
		out[i] = verify.Part{Graph: p.Graph, Device: p.Device}
	}
	return out
}

func TestPartitionVerifiesBaseline(t *testing.T) {
	g, res := partitioned(t, fm.NoReplication, 1)
	if err := verify.Partition(g, toParts(res), res.Summary); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionVerifiesWithReplication(t *testing.T) {
	for seed := int64(2); seed <= 5; seed++ {
		g, res := partitioned(t, 0, seed)
		if err := res.Verify(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDetectsEmpty(t *testing.T) {
	g, _ := partitioned(t, fm.NoReplication, 9)
	if err := verify.Partition(g, nil, metrics.Solution{}); err == nil {
		t.Fatal("want error for empty result")
	}
}

// drivenInternalNet returns the index of a net of p that is driven by a
// cell of p and internal, excluding nets named in `avoid`.
func drivenInternalNet(p *hypergraph.Graph, avoid string) int {
	for ni := range p.Nets {
		if p.Nets[ni].Ext != hypergraph.Internal || p.Nets[ni].Name == avoid {
			continue
		}
		for _, cn := range p.Nets[ni].Conns {
			if cn.Out {
				return ni
			}
		}
	}
	return -1
}

// TestDetectsEachViolationClass corrupts one invariant per case on a
// fresh copy of the same partitioned result and asserts the matching
// check fires.
func TestDetectsEachViolationClass(t *testing.T) {
	_, base := partitioned(t, fm.NoReplication, 6)
	if len(base.Parts) < 2 {
		t.Fatalf("need k >= 2 for cross-part corruption, got k=%d", len(base.Parts))
	}
	cases := []struct {
		name    string
		wantSub string
		corrupt func(t *testing.T, res *kway.Result)
	}{
		{
			name:    "bad summary row",
			wantSub: "summary row",
			corrupt: func(t *testing.T, res *kway.Result) {
				res.Summary.Parts[0].CLBs++
			},
		},
		{
			name:    "summary row count mismatch",
			wantSub: "summary rows",
			corrupt: func(t *testing.T, res *kway.Result) {
				res.Summary.Parts = res.Summary.Parts[:len(res.Summary.Parts)-1]
			},
		},
		{
			name:    "device misfit",
			wantSub: "does not fit",
			corrupt: func(t *testing.T, res *kway.Result) {
				tiny := library.Device{Name: "tiny", CLBs: 4, IOBs: 4, Price: 1, HighUtil: 1}
				res.Parts[0].Device = tiny
				res.Summary.Parts[0].Device = tiny
			},
		},
		{
			name:    "unknown cell",
			wantSub: "unknown cell",
			corrupt: func(t *testing.T, res *kway.Result) {
				res.Parts[0].Graph.Cells[0].Name = "ghost"
			},
		},
		{
			name:    "missing cell",
			wantSub: "missing from every part",
			corrupt: func(t *testing.T, res *kway.Result) {
				// Rename a cell of part 0 to a cell name living in part 1:
				// the original name then appears in no part.
				res.Parts[0].Graph.Cells[0].Name = res.Parts[1].Graph.Cells[0].Name
			},
		},
		{
			name:    "double producer",
			wantSub: "driven in",
			corrupt: func(t *testing.T, res *kway.Result) {
				p0, p1 := res.Parts[0].Graph, res.Parts[1].Graph
				vi := drivenInternalNet(p1, "")
				if vi < 0 {
					t.Skip("no internal driven net in part 1")
				}
				victim := p1.Nets[vi].Name
				ci := drivenInternalNet(p0, victim)
				if ci < 0 {
					t.Skip("no internal driven net in part 0")
				}
				p0.Nets[ci].Name = victim
			},
		},
		{
			name:    "IOB mismatch",
			wantSub: "span accounting",
			corrupt: func(t *testing.T, res *kway.Result) {
				p0 := res.Parts[0].Graph
				ni := drivenInternalNet(p0, "")
				if ni < 0 {
					t.Skip("no internal driven net in part 0")
				}
				p0.Nets[ni].Ext = hypergraph.ExtOut
				// Keep the summary row and device consistent so the span
				// accounting check is the one that fires.
				res.Summary.Parts[0].Terminals = p0.NumTerminals()
				if !res.Parts[0].Device.Fits(p0.TotalArea(), p0.NumTerminals()) {
					t.Skip("corruption tripped device feasibility instead")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh partition of the same seed, so corruption in one
			// case cannot leak into the next.
			g, res := partitioned(t, fm.NoReplication, 6)
			tc.corrupt(t, &res)
			err := res.Verify(g)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("corruption %q: want error containing %q, got %v", tc.name, tc.wantSub, err)
			}
		})
	}
}
