package server

import (
	"context"
	"encoding/json"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/topology"
)

// graphResultJSON renders res as ResultJSON does, with each part sized
// from its graph instead of its summary row.
func graphResultJSON(g *hypergraph.Graph, res core.Result, board *topology.Board) *JobResult {
	out := ResultJSON(g, res, board)
	out.Parts = nil
	for _, p := range res.Parts {
		out.Parts = append(out.Parts, PartSummary{
			Device: p.Device.Name, CLBs: p.Graph.TotalArea(),
			Terminals: p.Graph.NumTerminals(), Cells: p.Graph.NumCells(), Replicas: p.Replicas,
		})
	}
	return out
}

// TestResultJSONFromSummary: ResultJSON sizes parts from the summary
// rows, so a graphless Engine.Search result must render byte for byte
// as the graph-sized rendering of the core.Partition result, on the
// nine suite circuits and on a board job.
func TestResultJSONFromSummary(t *testing.T) {
	board, err := topology.ParseSpec("mesh:2x4:1048576")
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := bench.Generate(bench.Params{Name: "mesh1400", Cells: 1400, PrimaryIn: 40, PrimaryOut: 20, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		g    *hypergraph.Graph
		opts core.Options
	}
	var jobs []job
	for _, c := range bench.Suite() {
		jobs = append(jobs, job{build(t, c), core.Options{Solutions: 8, Seed: 4}})
	}
	jobs = append(jobs, job{mesh, core.Options{Solutions: 4, Seed: 4, Board: board}})
	var e core.Engine
	for _, j := range jobs {
		local, err := core.Partition(j.g, j.opts)
		if err != nil {
			t.Fatalf("%s: %v", j.g.Name, err)
		}
		served, err := e.Search(context.Background(), j.g, j.opts)
		if err != nil {
			t.Fatalf("%s: %v", j.g.Name, err)
		}
		want, err := json.Marshal(graphResultJSON(j.g, local, j.opts.Board))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(ResultJSON(j.g, served, j.opts.Board))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: summary rendering\n%s\nwant the graph rendering\n%s", j.g.Name, got, want)
		}
	}
}
