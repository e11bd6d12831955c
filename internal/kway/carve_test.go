package kway_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
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
// depends on) has no sink in the part holding its driver once the
// functional-replication rule prunes those pins. It demands no IOB, so
// a circuit too large for one device partitions like any other, every
// carve passes Options.Verify, and the net stays internal to the one
// part that drives it.
func TestDeadNetPartitions(t *testing.T) {
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
	res, err := kway.Partition(g, kway.Options{Solutions: 3, Seed: 1, Workers: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) < 2 {
		t.Fatalf("%d parts, want a carved circuit", len(res.Parts))
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	checkDeadNet(t, res, "dead")
}

// The c3540 suite circuit with u0 reading a new cell's net through a
// pin neither output depends on partitions into two verified parts.
func TestSuiteDeadNetPartitions(t *testing.T) {
	c, _ := bench.ByName("c3540")
	var buf bytes.Buffer
	if err := hypergraph.Write(&buf, build(t, c)); err != nil {
		t.Fatal(err)
	}
	const u0 = "cell u0 area=1 dff=0 in=pi7,pi9 out=w1,w2 dep=11;11\n"
	if !strings.Contains(buf.String(), u0) {
		t.Fatalf("c3540 has no line %q", u0)
	}
	text := strings.Replace(buf.String(), u0, "cell u0 area=1 dff=0 in=pi7,pi9,wdead out=w1,w2 dep=110;110\n"+
		"cell udead area=1 dff=0 in=pi3 out=wdead dep=1\n", 1)
	g, err := hypergraph.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	res, err := kway.Partition(g, kway.Options{Solutions: 8, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("%d parts, want 2", len(res.Parts))
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	checkDeadNet(t, res, "wdead")
}

// checkDeadNet checks that the net named name appears in exactly one
// part of res, as an internal net with a driver and no sink.
func checkDeadNet(t *testing.T, res kway.Result, name string) {
	t.Helper()
	found := 0
	for i, p := range res.Parts {
		for ni := range p.Graph.Nets {
			n := &p.Graph.Nets[ni]
			if n.Name != name {
				continue
			}
			found++
			if n.Ext != hypergraph.Internal || len(n.Conns) != 1 || !n.Conns[0].Out {
				t.Fatalf("part %d: net %q is %v with %d conns, want internal with only its driver", i, name, n.Ext, len(n.Conns))
			}
		}
	}
	if found != 1 {
		t.Fatalf("net %q appears in %d parts, want 1", name, found)
	}
}

// A circuit where every other cell is named as its neighbour plus "$r"
// names cells the way replicas are named. The search's replicas take
// names no source cell has, so every carve passes Options.Verify and
// the result passes Result.Verify, which resolves replicas by name.
func TestReplicaNameClashVerifies(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 24, PrimaryOut: 12, Seed: 5, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	source := make(map[string]bool, len(g.Cells))
	for i := range g.Cells {
		if i%2 == 1 {
			g.Cells[i].Name = g.Cells[i-1].Name + "$r"
		}
		source[g.Cells[i].Name] = true
	}
	zero := 0
	res, err := kway.Partition(g, kway.Options{Threshold: &zero, Solutions: 6, Seed: 2, Workers: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	replicas := 0
	for i, p := range res.Parts {
		for _, c := range p.Graph.Cells {
			if c.Replica && source[c.Name] {
				t.Fatalf("part %d: replica named %q like a source cell", i, c.Name)
			}
		}
		replicas += p.Replicas
	}
	if replicas == 0 {
		t.Fatal("the search made no replica")
	}
}

// A part kpart writes is a circuit whose replicas the source already
// flags and names. Re-partitioning it counts only the replicas the new
// search makes, so the result passes Options.Verify, whether the part
// fits one device or is carved again into small ones.
func TestRepartitionWrittenPart(t *testing.T) {
	c, _ := bench.ByName("c3540")
	res, err := kway.Partition(build(t, c), kway.Options{Solutions: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	part := res.Parts[0]
	for _, p := range res.Parts {
		if p.Replicas > part.Replicas {
			part = p
		}
	}
	if part.Replicas == 0 {
		t.Fatal("no part holds a replica")
	}
	var buf bytes.Buffer
	if err := hypergraph.Write(&buf, part.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	small := library.XC3000().Devices[0] // XC3020
	smallOnly, err := library.Custom(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		lib   library.Library
		parts int // at least
	}{{"XC3000", library.XC3000(), 1}, {small.Name, smallOnly, 2}} {
		re, err := kway.Partition(g, kway.Options{Library: tc.lib, Solutions: 4, Seed: 3, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := re.Verify(g); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(re.Parts) < tc.parts {
			t.Fatalf("%s: %d parts, want at least %d", tc.name, len(re.Parts), tc.parts)
		}
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

// A carve is accepted without an area check of its own: carveFM's FM
// bounds hold the carved block inside its device's CLB window, and the
// library admits no device whose window is empty. Every accepted carve
// on the suite circuits must therefore lie in its device's window and
// within its IOBs, and the only rejections are no-device, fm and
// terminals. The runs cover the flat carve at T = 1 and T = 0, the
// parallel refiner and the V-cycle, and c5315's carves accepted under
// terminal pressure cover FM on the t_P0 objective.
func TestCarvesStayInDeviceWindow(t *testing.T) {
	lib := library.XC3000()
	byName := map[string]library.Device{}
	for _, d := range lib.Devices {
		byName[d.Name] = d
	}
	one, zero := 1, 0
	modes := []struct {
		name string
		opts kway.Options
	}{
		{"T1", kway.Options{Threshold: &one}},
		{"T0", kway.Options{Threshold: &zero}},
		{"refine-workers-2", kway.Options{RefineWorkers: 2}},
		{"multilevel", kway.Options{Multilevel: true, RefineWorkers: 2}},
	}
	pressured := 0
	for _, c := range bench.Suite() {
		if raceEnabled && c.Params.Cells > 1000 {
			continue // the window does not depend on scheduling; keep the race run short
		}
		g := build(t, c)
		for _, m := range modes {
			opts := m.opts
			opts.Library, opts.Solutions, opts.Seed = lib, 2, 4
			rec := &trace.Recorder{}
			tracer := span.NewTracer(span.Options{Process: "kway-test"})
			opts.Spans = tracer.Root(span.DeriveTraceID("window", opts.Seed, opts.Solutions), 0).WithSink(rec)
			if _, err := kway.Partition(g, opts); err != nil {
				t.Fatalf("%s %s: %v", c.Name, m.name, err)
			}
			underPressure := map[int]bool{} // per attempt: a terminal rejection since its last accepted carve
			for _, e := range rec.Events() {
				switch e.Kind {
				case trace.KindCarveAccepted:
					d, ok := byName[e.Device]
					if !ok || !d.Fits(e.Area, e.Terminals) {
						t.Fatalf("%s %s attempt %d: carve of %d CLBs, %d terminals accepted for %s [%d,%d] CLBs, %d IOBs",
							c.Name, m.name, e.Attempt, e.Area, e.Terminals, e.Device, d.MinCLBs(), d.MaxCLBs(), d.IOBs)
					}
					if underPressure[e.Attempt] {
						pressured++
					}
					underPressure[e.Attempt] = false
				case trace.KindCarveRejected:
					switch e.Reason {
					case trace.RejectNoDevice, trace.RejectFM:
					case trace.RejectTerminals:
						underPressure[e.Attempt] = true
					default:
						t.Fatalf("%s %s: carve rejected for %q", c.Name, m.name, e.Reason)
					}
				}
			}
		}
	}
	if pressured == 0 {
		t.Fatal("no carve accepted under terminal pressure")
	}
}

// A library device with an empty CLB window fails the library check
// before the search runs a single attempt.
func TestPartitionRejectsEmptyCLBWindow(t *testing.T) {
	lib := library.Library{Devices: []library.Device{{Name: "narrow", CLBs: 10, IOBs: 10, Price: 1, LowUtil: 0.51, HighUtil: 0.52}}}
	want := lib.Validate()
	if want == nil {
		t.Fatal("library validates")
	}
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	opts := kway.Options{Library: lib, Solutions: 2, Seed: 1}
	opts.Spans = tracer.Root(span.DeriveTraceID("narrow", 1, 2), 0).WithSink(rec)
	_, err := kway.Partition(build(t, bench.Suite()[0]), opts)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Partition error %v, want %v", err, want)
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindCarveAccepted || e.Kind == trace.KindCarveRejected || e.Kind == trace.KindSolution {
			t.Fatalf("search ran: %+v", e)
		}
	}
}
