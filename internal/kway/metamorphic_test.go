package kway_test

import (
	"fmt"
	"runtime"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/metrics"
	"fpgapart/internal/trace"
)

func metaCircuit(t testing.TB, seed int64) *hypergraph.Graph {
	t.Helper()
	return metaCircuitSized(t, 350, seed)
}

// metaCircuitSized is metaCircuit with the given cell target.
func metaCircuitSized(t testing.TB, cells int, seed int64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "meta", Cells: cells, PrimaryIn: 16, PrimaryOut: 10, DFFs: 40,
		Clustering: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// relabel rebuilds the graph with fresh cell and net names but
// identical structure (same ids, kinds, dependency vectors, areas).
func relabel(t *testing.T, g *hypergraph.Graph) *hypergraph.Graph {
	t.Helper()
	b := hypergraph.NewBuilder(g.Name + "_relabeled")
	for ni := range g.Nets {
		name := fmt.Sprintf("zz%d", ni)
		switch g.Nets[ni].Ext {
		case hypergraph.ExtIn:
			b.InputNet(name)
		case hypergraph.ExtOut:
			b.OutputNet(name)
		default:
			b.Net(name)
		}
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		b.AddCell(hypergraph.CellSpec{
			Name:    fmt.Sprintf("qq%d", ci),
			Inputs:  c.Inputs,
			Outputs: c.Outputs,
			Dep:     c.Dep,
			Area:    c.Area,
			DFFs:    c.DFFs,
		})
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func summarySig(s metrics.Solution) string { return fmt.Sprintf("%#v", s) }

// TestRelabelInvariance: the search keys on graph structure, never on
// names, so renaming every cell and net must reproduce the summary
// byte for byte.
func TestRelabelInvariance(t *testing.T) {
	g := metaCircuit(t, 12)
	h := relabel(t, g)
	for _, threshold := range []int{fm.NoReplication, 1} {
		opts := kway.Options{Library: library.XC3000(), Threshold: &threshold, Solutions: 4, Seed: 3, Verify: true}
		a, err := kway.Partition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kway.Partition(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sa, sb := summarySig(a.Summary), summarySig(b.Summary); sa != sb {
			t.Fatalf("T=%d: relabeling changed the solution:\n  original:  %s\n  relabeled: %s", threshold, sa, sb)
		}
	}
}

// TestRefineWorkersInvariance: the parallel sub-round refinement engine
// promises one partition per seed regardless of how many proposal
// workers evaluate gains. Every RefineWorkers >= 2 setting, crossed
// with every GOMAXPROCS, must produce a byte-identical solution
// summary. (RefineWorkers <= 1 is a different engine with its own
// golden gate — see TestRefineWorkersGateIsInert.) The parallel engine
// refines only states above fm's parallel cutoff (see
// fm.Config.RefineWorkers), so the circuit's 2100 cells clear it and
// every run must report parallel sub-rounds.
func TestRefineWorkersInvariance(t *testing.T) {
	g := metaCircuitSized(t, 2100, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 4, 8} {
			opts := kway.Options{
				Library: library.XC3000(), Solutions: 4, Seed: 5,
				RefineWorkers: workers, Verify: true,
			}
			rec := recordEvents(&opts)
			res, err := kway.Partition(g, opts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d RefineWorkers=%d: %v", procs, workers, err)
			}
			if len(rec.Filter(trace.KindParRound)) == 0 {
				t.Fatalf("GOMAXPROCS=%d RefineWorkers=%d: the search ran no parallel sub-round", procs, workers)
			}
			sig := summarySig(res.Summary)
			if want == "" {
				want = sig
			} else if sig != want {
				t.Fatalf("GOMAXPROCS=%d RefineWorkers=%d produced a different solution:\n  first: %s\n  now:   %s", procs, workers, want, sig)
			}
		}
	}
}

// TestSummaryDeterministicAcrossGOMAXPROCS: the parallel search must be
// schedule-independent — identical Options give a byte-identical
// summary whether the worker pool runs on 1, 2 or 8 procs.
func TestSummaryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := metaCircuit(t, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := kway.Partition(g, kway.Options{
			Library: library.XC3000(), Solutions: 4, Seed: 5, Verify: true,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		sig := summarySig(res.Summary)
		if want == "" {
			want = sig
		} else if sig != want {
			t.Fatalf("GOMAXPROCS=%d produced a different solution:\n  first: %s\n  now:   %s", procs, want, sig)
		}
	}
}
