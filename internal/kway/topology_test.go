package kway_test

import (
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
	"fpgapart/internal/verify"
)

// topoScore recomputes a solution's hop-weighted interconnect from
// scratch: part i occupies board slot i, each net's cost is the
// Steiner span of the slots it touches.
func topoScore(b *topology.Board, parts []kway.Part) int {
	spans := make(map[string]topology.SlotSet)
	for slot, p := range parts {
		for ni := range p.Graph.Nets {
			name := p.Graph.Nets[ni].Name
			spans[name] = spans[name].Add(slot)
		}
	}
	total := 0
	for _, span := range spans {
		total += b.SpanCost(span)
	}
	return total
}

// meshBoard is the shared board of the mesh tests; link capacities are
// generous because these tests compare hop cost, not congestion.
func meshBoard(t *testing.T) *topology.Board {
	t.Helper()
	b, err := topology.Mesh(2, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMeshTopologyBeatsTerminalCut is the acceptance gate of the
// board placement: on a mesh board, the same fixed-seed search with
// its parts placed on slots must produce strictly lower hop-weighted
// interconnect than the terminal-cut engine's solution scored in carve
// order on the same board. It also cross-checks the engine's incrementally
// maintained TopoCost against a from-scratch recount and runs the
// routing post-check on the winning solution.
func TestMeshTopologyBeatsTerminalCut(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 1400, PrimaryIn: 40, PrimaryOut: 20, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	board := meshBoard(t)
	base := kway.Options{Library: library.XC3000(), Solutions: 8, Seed: 11, Workers: 1}

	flatRes, err := kway.Partition(g, base)
	if err != nil {
		t.Fatal(err)
	}
	if flatRes.Summary.HasTopo {
		t.Fatal("flat run must not carry a topology score")
	}

	topoOpts := base
	topoOpts.Board = board
	topoRes, err := kway.Partition(g, topoOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !topoRes.Summary.HasTopo {
		t.Fatal("board-backed run did not score topology")
	}
	if got, want := topoRes.Summary.TopoCost, topoScore(board, topoRes.Parts); got != want {
		t.Fatalf("engine TopoCost %d != from-scratch recount %d", got, want)
	}

	flatScore := topoScore(board, flatRes.Parts)
	if topoRes.Summary.TopoCost >= flatScore {
		t.Fatalf("placement did not beat terminal-cut: topo=%d flat=%d",
			topoRes.Summary.TopoCost, flatScore)
	}
	t.Logf("hop-weighted interconnect: topology=%d terminal-cut=%d (k=%d vs %d)",
		topoRes.Summary.TopoCost, flatScore, len(topoRes.Parts), len(flatRes.Parts))

	graphs := make([]*hypergraph.Graph, len(topoRes.Parts))
	for i, p := range topoRes.Parts {
		graphs[i] = p.Graph
	}
	if err := verify.Routing(board, graphs); err != nil {
		t.Fatalf("winning solution fails the routing post-check: %v", err)
	}
	if err := topoRes.Verify(g); err != nil {
		t.Fatal(err)
	}
}

// TestTightBoardPlacementRoutes runs kbench's board-mesh circuit on a
// mesh whose 60-net links overflow under most carve-order placements.
// Placing each attempt's parts on the cheapest assignment that routes
// folds 20 of 50 attempts feasible; keeping part i on slot i in carve
// order folded 1. Every returned result must pass the routing check.
func TestTightBoardPlacementRoutes(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 1400, PrimaryIn: 40, PrimaryOut: 20, Clustering: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	board, err := topology.ParseSpec("mesh:2x4:60")
	if err != nil {
		t.Fatal(err)
	}
	res, err := kway.Partition(g, kway.Options{Library: library.XC3000(), Solutions: 50, Seed: 61, Board: board})
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*hypergraph.Graph, len(res.Parts))
	for i, p := range res.Parts {
		graphs[i] = p.Graph
	}
	if err := verify.Routing(board, graphs); err != nil {
		t.Fatalf("returned solution fails the routing check: %v", err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	if got, want := res.Summary.TopoCost, topoScore(board, res.Parts); got != want {
		t.Fatalf("engine TopoCost %d != from-scratch recount %d", got, want)
	}
	if res.Feasible < 20 {
		t.Fatalf("%d of 50 attempts feasible, want at least 20", res.Feasible)
	}
}

// TestTopologySolutionEventsCarryTopo pins the trace contract: a
// board-backed run emits feasible KindSolution events with HasTopo set
// and the fold reports the incumbent's topology score in the summary.
func TestTopologySolutionEventsCarryTopo(t *testing.T) {
	res, rec := goldenRun(t, kway.Options{Board: meshBoard(t)})
	if !res.Summary.HasTopo {
		t.Fatal("no topology score on a board-backed run")
	}
	feasible := 0
	for _, e := range rec.Filter(trace.KindSolution) {
		if e.Feasible {
			feasible++
			if !e.HasTopo {
				t.Fatalf("feasible solution event without HasTopo: %+v", e)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible solution events recorded")
	}
}

// TestTopologyRejectsOverCapacityBoard: when every link is too narrow
// for the circuit's cut, the routing post-check must fail each attempt
// and the search must surface an error instead of an unroutable
// solution.
func TestTopologyRejectsOverCapacityBoard(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 12, PrimaryOut: 8, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	board, err := topology.Crossbar(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1 per link: any bipartition of this circuit cuts far
	// more than one net, so every attempt fails routing.
	_, err = kway.Partition(g, kway.Options{
		Library: library.XC3000(), Solutions: 3, Seed: 11, Workers: 1,
		Board: board,
	})
	if err == nil {
		t.Fatal("unroutable board accepted")
	}
}
