package kway

import (
	"reflect"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
	"fpgapart/internal/metrics"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

func testCircuit(t testing.TB, cells int, seed int64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "kwaytest", Cells: cells, PrimaryIn: 12, PrimaryOut: 8,
		Seed: seed, Clustering: 0.55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sinkScope returns an armed span scope sending its events to sink:
// events need armed spans.
func sinkScope(sink trace.Sink) span.Scope {
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	return tracer.Root(span.DeriveTraceID("kway-test", 0, 0), 0).WithSink(sink)
}

func opts(threshold int, solutions int) Options {
	return Options{
		Library:   library.XC3000(),
		Threshold: &threshold,
		Solutions: solutions,
		Seed:      1,
		// The whole suite runs with in-loop verification: any carve or
		// solution the search accepts that fails the structural checks
		// turns into a *VerificationError test failure.
		Verify: true,
	}
}

func TestPartitionSingleDeviceFit(t *testing.T) {
	g := testCircuit(t, 40, 1)
	res, err := Partition(g, opts(fm.NoReplication, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.K() != 1 {
		t.Fatalf("k = %d, want 1 (fits one XC3020)", res.Summary.K())
	}
	if res.Parts[0].Device.Name != "XC3020" {
		t.Fatalf("device = %s, want XC3020", res.Parts[0].Device.Name)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionMultiDevice(t *testing.T) {
	g := testCircuit(t, 400, 2)
	res, err := Partition(g, opts(fm.NoReplication, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.K() < 2 {
		t.Fatalf("k = %d, want ≥ 2 for 400 CLBs", res.Summary.K())
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Every part graph is valid and matches its summary row.
	for i, p := range res.Parts {
		if err := p.Graph.Validate(); err != nil {
			t.Fatalf("part %d invalid: %v", i, err)
		}
		if p.Graph.TotalArea() != res.Summary.Parts[i].CLBs {
			t.Fatalf("part %d area mismatch", i)
		}
		if p.Graph.NumTerminals() > p.Device.IOBs {
			t.Fatalf("part %d: %d terminals > %d IOBs of %s",
				i, p.Graph.NumTerminals(), p.Device.IOBs, p.Device.Name)
		}
		u := p.Device.Utilization(p.Graph.TotalArea())
		if u < p.Device.LowUtil-1e-9 || u > p.Device.HighUtil+1e-9 {
			t.Fatalf("part %d: utilization %.2f outside [%.2f,%.2f] on %s",
				i, u, p.Device.LowUtil, p.Device.HighUtil, p.Device.Name)
		}
	}
}

// instances counts the cell instances across a solution's parts, more
// than the source circuit's cells when replication ran.
func instances(s metrics.Solution) int {
	n := 0
	for _, p := range s.Parts {
		n += p.Cells
	}
	return n
}

// Without replication, the parts exactly cover the source cells.
func TestPartitionNoReplicationConservesCells(t *testing.T) {
	g := testCircuit(t, 400, 3)
	res, err := Partition(g, opts(fm.NoReplication, 4))
	if err != nil {
		t.Fatal(err)
	}
	if instances(res.Summary) != g.NumCells() {
		t.Fatalf("cells = %d, want %d", instances(res.Summary), g.NumCells())
	}
	if res.Summary.ReplicatedCells() != 0 {
		t.Fatalf("replicas = %d, want 0", res.Summary.ReplicatedCells())
	}
	// Every source cell appears in exactly one part.
	seen := map[string]int{}
	for _, p := range res.Parts {
		for i := range p.Graph.Cells {
			seen[p.Graph.Cells[i].Name]++
		}
	}
	if len(seen) != g.NumCells() {
		t.Fatalf("distinct cells = %d, want %d", len(seen), g.NumCells())
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s appears %d times", name, n)
		}
	}
}

func TestPartitionWithReplicationAccounting(t *testing.T) {
	g := testCircuit(t, 400, 4)
	res, err := Partition(g, opts(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Instances = source cells + replicas.
	if instances(res.Summary) != g.NumCells()+res.Summary.ReplicatedCells() {
		t.Fatalf("instances %d != %d source + %d replicas",
			instances(res.Summary), g.NumCells(), res.Summary.ReplicatedCells())
	}
	// Replication should stay moderate (paper: ≤ ~10%).
	if pct := res.Summary.ReplicatedPct(g.NumCells()); pct > 25 {
		t.Fatalf("replicated %.1f%% of cells, suspiciously high", pct)
	}
}

// The paper's Table VII claim, in aggregate: replication reduces the
// average IOB utilization at equal-or-better cost on most circuits.
func TestReplicationReducesInterconnectAggregate(t *testing.T) {
	var baseIOB, replIOB float64
	var baseCost, replCost float64
	for seed := int64(0); seed < 3; seed++ {
		g := testCircuit(t, 350, 20+seed)
		o := opts(fm.NoReplication, 6)
		o.Seed = seed
		base, err := Partition(g, o)
		if err != nil {
			t.Fatal(err)
		}
		zero := 0
		o.Threshold = &zero
		repl, err := Partition(g, o)
		if err != nil {
			t.Fatal(err)
		}
		baseIOB += base.Summary.AvgIOBUtil()
		replIOB += repl.Summary.AvgIOBUtil()
		baseCost += base.Summary.DeviceCost()
		replCost += repl.Summary.DeviceCost()
	}
	t.Logf("avg IOB util: base=%.3f repl=%.3f; cost base=%.0f repl=%.0f",
		baseIOB/3, replIOB/3, baseCost, replCost)
	if replIOB > baseIOB*1.05 {
		t.Fatalf("replication increased interconnect: %.3f vs %.3f", replIOB, baseIOB)
	}
	if replCost > baseCost*1.15 {
		t.Fatalf("replication exploded cost: %.0f vs %.0f", replCost, baseCost)
	}
}

func TestPartitionValidation(t *testing.T) {
	g := testCircuit(t, 300, 5)
	// An empty library selects XC3000: the same search, the same result.
	def, err := Partition(g, Options{Solutions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xc, err := Partition(g, Options{Library: library.XC3000(), Solutions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Summary, xc.Summary) {
		t.Fatalf("empty library partitioned as %v, XC3000 as %v", def.Summary, xc.Summary)
	}
	// A non-empty library is validated, never replaced.
	zeroCLBs := library.XC3000()
	zeroCLBs.Devices[0].CLBs = 0
	unsorted := library.XC3000()
	unsorted.Devices[0], unsorted.Devices[1] = unsorted.Devices[1], unsorted.Devices[0]
	for name, lib := range map[string]library.Library{"zero-CLB device": zeroCLBs, "unsorted devices": unsorted} {
		if _, err := Partition(g, Options{Library: lib, Solutions: 1, Seed: 1}); err == nil {
			t.Fatalf("library with a %s should fail", name)
		}
	}
	empty := &hypergraph.Graph{Name: "empty"}
	if _, err := Partition(empty, opts(fm.NoReplication, 1)); err == nil {
		t.Fatal("empty circuit should fail")
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := testCircuit(t, 200, 6)
	a, err := Partition(g, opts(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, opts(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.DeviceCost() != b.Summary.DeviceCost() || a.Summary.K() != b.Summary.K() {
		t.Fatalf("nondeterministic: %v vs %v", a.Summary, b.Summary)
	}
}

func TestPartitionInfeasibleLibrary(t *testing.T) {
	g := testCircuit(t, 200, 7)
	// A library whose only device demands ≥ 90% utilization of 1000
	// CLBs can never host 200 CLBs, and carving can't help.
	lib, err := library.Custom(library.Device{
		Name: "BIG", CLBs: 1000, IOBs: 10, Price: 1, LowUtil: 0.9, HighUtil: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(g, Options{Library: lib, Solutions: 2, Seed: 1}); err == nil {
		t.Fatal("expected failure for impossible library")
	}
}

func TestCountReplicas(t *testing.T) {
	b := hypergraph.NewBuilder("r")
	pi := b.InputNet("pi")
	o1 := b.OutputNet("o1")
	o2 := b.OutputNet("o2")
	o3 := b.OutputNet("o3")
	// Replicas counts the copies the search made, not source cells the
	// circuit already flags (as a part file kpart wrote does).
	b.AddCell(hypergraph.CellSpec{Name: "u1", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{o1}})
	b.AddCell(hypergraph.CellSpec{Name: "u1$r", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{o2}, Replica: true})
	b.AddCell(hypergraph.CellSpec{Name: "u1$r$r", Inputs: []hypergraph.NetID{pi}, Outputs: []hypergraph.NetID{o3}, Replica: true})
	g := b.MustBuild()
	res, err := Partition(g, Options{Solutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Parts[0].Replicas; len(res.Parts) != 1 || got != 0 {
		t.Fatalf("%d parts, the first with %d replicas, want one part with 0", len(res.Parts), got)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestMoreSolutionsNeverWorse(t *testing.T) {
	g := testCircuit(t, 300, 8)
	few, err := Partition(g, opts(fm.NoReplication, 2))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Partition(g, opts(fm.NoReplication, 8))
	if err != nil {
		t.Fatal(err)
	}
	if few.Summary.Score().Better(many.Summary.Score()) {
		t.Fatalf("more solutions produced a worse result: %v vs %v", many.Summary, few.Summary)
	}
}

func TestRemapDevicesPicksCheapest(t *testing.T) {
	lib := library.XC3000()
	g := testCircuit(t, 40, 11)
	big := lib.Largest()
	parts := []Part{{Graph: g, Device: big, area: g.TotalArea(), terms: g.NumTerminals()}}
	remapDevices(parts, lib)
	if parts[0].Device.Name != "XC3020" {
		t.Fatalf("remap chose %s, want XC3020 for %d CLBs", parts[0].Device.Name, g.TotalArea())
	}
	// Infeasible-anywhere parts keep their device.
	tiny, _ := library.Custom(library.Device{Name: "nano", CLBs: 2, IOBs: 1, Price: 1, HighUtil: 1})
	parts[0].Device = big
	remapDevices(parts, tiny)
	if parts[0].Device.Name != "XC3090" {
		t.Fatal("remap should keep the device when nothing fits")
	}
}

// The paper's introduction: with a homogeneous library the problem
// reduces to minimizing the number k of devices. The search must land
// near the area lower bound.
func TestHomogeneousLibraryMinimizesDeviceCount(t *testing.T) {
	g := testCircuit(t, 420, 12)
	dev := library.Device{Name: "uni", CLBs: 128, IOBs: 140, Price: 100, LowUtil: 0, HighUtil: 0.9}
	lib, err := library.Homogeneous(dev)
	if err != nil {
		t.Fatal(err)
	}
	off := fm.NoReplication
	res, err := Partition(g, Options{Library: lib, Threshold: &off, Solutions: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lower := (g.TotalArea() + dev.MaxCLBs() - 1) / dev.MaxCLBs()
	if res.Summary.K() < lower {
		t.Fatalf("k = %d below area lower bound %d", res.Summary.K(), lower)
	}
	if res.Summary.K() > lower+2 {
		t.Fatalf("k = %d far above lower bound %d", res.Summary.K(), lower)
	}
	// Cost is exactly k * price.
	if res.Summary.DeviceCost() != float64(res.Summary.K())*dev.Price {
		t.Fatal("homogeneous cost should be k x price")
	}
}

func TestPartitionXC4000Library(t *testing.T) {
	// Four members of the Xilinx XC4000 family, a second heterogeneous
	// library beyond the paper's XC3000 setup: the real parts'
	// capacities and terminals, prices calibrated as XC3000's are
	// (per-CLB cost decreasing with size).
	xc4000 := library.Library{Devices: []library.Device{
		{Name: "XC4003", CLBs: 100, IOBs: 80, Price: 150, LowUtil: 0.00, HighUtil: 0.90},
		{Name: "XC4005", CLBs: 196, IOBs: 112, Price: 262, LowUtil: 0.45, HighUtil: 0.90},
		{Name: "XC4008", CLBs: 324, IOBs: 144, Price: 401, LowUtil: 0.54, HighUtil: 0.88},
		{Name: "XC4010", CLBs: 400, IOBs: 160, Price: 468, LowUtil: 0.71, HighUtil: 0.88},
	}}
	for i := 1; i < len(xc4000.Devices); i++ {
		if d := xc4000.Devices[i]; d.CLBCost() >= xc4000.Devices[i-1].CLBCost() {
			t.Fatalf("per-CLB cost not decreasing at %s", d.Name)
		}
	}
	g := testCircuit(t, 600, 13)
	res, err := Partition(g, Options{Library: xc4000, Solutions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	for name := range res.Summary.DeviceCounts() {
		if name[:4] != "XC40" {
			t.Fatalf("unexpected device %s", name)
		}
	}
}

func TestCostSpreadReported(t *testing.T) {
	g := testCircuit(t, 400, 14)
	res, err := Partition(g, opts(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.CostMin <= 0 || res.CostMax < res.CostMin || res.CostMean < res.CostMin || res.CostMean > res.CostMax {
		t.Fatalf("cost spread inconsistent: min=%g mean=%g max=%g", res.CostMin, res.CostMean, res.CostMax)
	}
	if res.Summary.DeviceCost() != res.CostMin {
		t.Fatalf("best cost %g != min %g", res.Summary.DeviceCost(), res.CostMin)
	}
}
