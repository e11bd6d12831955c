package kway_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// TestPartsOutliveCarveStorage: a carve worker collects each attempt's
// part cell lists in storage it recycles across attempts, so a part
// that aliased that storage would be overwritten by the worker's later
// attempts. A one-worker search whose best attempt is not its last must
// therefore verify against its circuit and render exactly like a
// four-worker search, whose attempts spread over four workers'
// storage. At seed 12 the attempts after the best one refill the
// storage within its grown capacity, so an aliased part would be
// overwritten rather than left behind by a reallocation.
func TestPartsOutliveCarveStorage(t *testing.T) {
	opts := terminalBoundOptions()
	opts.Seed = 12
	res, cps, _ := runCheckpointed(t, opts, &terminalBound)
	if best := cps[len(cps)-1].BestAttempt; best < 0 || best == opts.Solutions-1 {
		t.Fatalf("best attempt %d of %d: the search must fold later attempts after its best", best, opts.Solutions)
	}
	g, err := bench.Generate(terminalBound)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	wide, _, _ := runCheckpointed(t, opts, &terminalBound)
	if goldenRender(t, res) != goldenRender(t, wide) {
		t.Fatal("one-worker result differs from the four-worker result")
	}
}

// TestTerminalBoundDeterminism: what a carve passes on to the next
// stays inside one attempt, so on the terminal-bound circuit the
// result is the same for every Workers and GOMAXPROCS value and for a
// search resumed from a mid-search checkpoint.
func TestTerminalBoundDeterminism(t *testing.T) {
	base := terminalBoundOptions()
	want, cps, _ := runCheckpointed(t, base, &terminalBound)
	wantRender := goldenRender(t, want)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4} {
			opts := base
			opts.Workers = workers
			got, _, _ := runCheckpointed(t, opts, &terminalBound)
			if goldenRender(t, got) != wantRender {
				t.Fatalf("GOMAXPROCS=%d Workers=%d: result differs from the one-worker search", procs, workers)
			}
		}
	}
	opts := base
	cp := cps[len(cps)/2]
	opts.Resume = &cp
	resumed, _, _ := runCheckpointed(t, opts, &terminalBound)
	checkSameResult(t, "resume", want, resumed)
}

// A dead net (driven, internal, read only by input pins no output
// depends on) has no sink in a block holding its driver once the
// functional-replication rule prunes those pins, so no block of such a
// circuit extracts. A circuit too large for one device therefore has
// no feasible solution: every carve that passes the device checks is
// rejected as "materialize", with the extraction's error.
func TestDeadNetRejectsEveryCarve(t *testing.T) {
	b := hypergraph.NewBuilder("deadnet")
	prev := []hypergraph.NetID{b.InputNet("pi0"), b.InputNet("pi1")}
	dead := b.Net("dead")
	for i := 0; i < 400; i++ {
		out := b.Net(fmt.Sprintf("w%d", i))
		spec := hypergraph.CellSpec{
			Name:    fmt.Sprintf("u%d", i),
			Inputs:  []hypergraph.NetID{prev[len(prev)-1], prev[len(prev)-2]},
			Outputs: []hypergraph.NetID{out},
			DepBits: [][]int{{1, 1}},
		}
		switch i {
		case 0:
			spec.Outputs = append(spec.Outputs, dead)
			spec.DepBits = append(spec.DepBits, []int{1, 0})
		case 7:
			spec.Inputs = append(spec.Inputs, dead)
			spec.DepBits = [][]int{{1, 1, 0}}
		}
		b.AddCell(spec)
		prev = append(prev, out)
	}
	b.MarkOutput(prev[len(prev)-1])
	g := b.MustBuild()
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	opts := kway.Options{Solutions: 3, Seed: 1, Workers: 1}
	opts.Spans = tracer.Root(span.DeriveTraceID("dead", opts.Seed, opts.Solutions), 0).WithSink(rec)
	_, err := kway.Partition(g, opts)
	var inf *kway.InfeasibleError
	if !errors.As(err, &inf) || !strings.Contains(err.Error(), `subcircuit "deadnet.0": hypergraph "deadnet.0": net "dead" has no sinks`) {
		t.Fatalf("err = %v, want an infeasible search failing on the dead net", err)
	}
	materialize := 0
	for _, e := range rec.Filter(trace.KindCarveRejected) {
		if e.Reason == trace.RejectMaterialize {
			materialize++
		}
	}
	if n := len(rec.Filter(trace.KindCarveAccepted)); n != 0 || materialize == 0 {
		t.Fatalf("%d carves accepted, %d rejected as materialize; want none and some", n, materialize)
	}
}

// A replica is named after its cell plus "$r", so on a circuit where
// some cell already carries that name the replica repeats it, and a
// block holding both does not extract. Such a carve is rejected as
// "materialize", and the parts of the result extract.
func TestReplicaNameClashRejectsCarve(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 24, PrimaryOut: 12, Seed: 5, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(g.Cells); i += 2 {
		g.Cells[i].Name = g.Cells[i-1].Name + "$r"
	}
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	zero := 0
	opts := kway.Options{Threshold: &zero, Solutions: 6, Seed: 2, Workers: 1}
	opts.Spans = tracer.Root(span.DeriveTraceID("clash", opts.Seed, opts.Solutions), 0).WithSink(rec)
	res, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The partition verifier resolves replicas by their names, which
	// these clash with, so check the parts one by one.
	for i, p := range res.Parts {
		if err := p.Graph.Validate(); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	materialize := 0
	for _, e := range rec.Filter(trace.KindCarveRejected) {
		if e.Reason == trace.RejectMaterialize {
			materialize++
		}
	}
	if materialize == 0 {
		t.Fatal("no carve was rejected for a repeated replica name")
	}
}

// wideCircuit builds a circuit around a cell with one output more than
// replication.MaxOutputs. The cell reads a primary input, and every
// output but one is a primary output; that one feeds a chain of n
// single-output cells.
func wideCircuit(n int) *hypergraph.Graph {
	b := hypergraph.NewBuilder("wide")
	wide := hypergraph.CellSpec{Name: "wide", Inputs: []hypergraph.NetID{b.InputNet("pi")}}
	wide.Outputs = append(wide.Outputs, b.Net("w0"))
	for i := 1; i <= replication.MaxOutputs; i++ {
		wide.Outputs = append(wide.Outputs, b.OutputNet(fmt.Sprintf("w%d", i)))
	}
	for range wide.Outputs {
		wide.DepBits = append(wide.DepBits, []int{1})
	}
	b.AddCell(wide)
	prev := wide.Outputs[0]
	for i := 0; i < n; i++ {
		out := b.Net(fmt.Sprintf("c%d", i))
		b.AddCell(hypergraph.CellSpec{Name: fmt.Sprintf("u%d", i), Inputs: []hypergraph.NetID{prev}, Outputs: []hypergraph.NetID{out}, DepBits: [][]int{{1}}})
		prev = out
	}
	b.MarkOutput(prev)
	return b.MustBuild()
}

// A cell wider than replication.MaxOutputs cannot enter a carve's
// replication state. A circuit holding one still partitions when it
// fits one device whole; when it needs a carve, the search is
// infeasible, naming the cell and the limit.
func TestCellWiderThanMaxOutputs(t *testing.T) {
	g := wideCircuit(10)
	res, err := kway.Partition(g, kway.Options{Solutions: 2, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 || res.Parts[0].Graph != g {
		t.Fatalf("%d parts, want the circuit whole as one", len(res.Parts))
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}

	_, err = kway.Partition(wideCircuit(400), kway.Options{Solutions: 2, Seed: 1})
	var inf *kway.InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want an *InfeasibleError", err)
	}
	want := fmt.Sprintf(`cell "wide" has %d outputs, max %d`, replication.MaxOutputs+1, replication.MaxOutputs)
	if first := inf.First.Error(); !strings.HasPrefix(first, "kway: ") || !strings.Contains(first, want) {
		t.Fatalf("first failure %q, want a kway error containing %q", first, want)
	}
}
