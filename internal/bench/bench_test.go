package bench

import (
	"math"
	"sync"
	"testing"

	"fpgapart/internal/hypergraph"
)

func TestGenerateValidGraph(t *testing.T) {
	g, err := Generate(Params{Name: "t", Cells: 200, PrimaryIn: 20, PrimaryOut: 10, DFFs: 40, Seed: 1, Clustering: 0.5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c := g.NumCells(); c < 190 || c > 212 {
		t.Fatalf("cells = %d, want ~200", c)
	}
	if g.NumDFF() != 40 {
		t.Fatalf("dffs = %d, want 40", g.NumDFF())
	}
	if g.NumTerminals() < 30 {
		t.Fatalf("terminals = %d, want ≥ 30", g.NumTerminals())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Name: "d", Cells: 100, PrimaryIn: 10, PrimaryOut: 5, Seed: 7}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNets() != b.NumNets() || a.NumPins() != b.NumPins() || a.NumTerminals() != b.NumTerminals() {
		t.Fatalf("nondeterministic generation: %d/%d/%d vs %d/%d/%d",
			a.NumNets(), a.NumPins(), a.NumTerminals(), b.NumNets(), b.NumPins(), b.NumTerminals())
	}
	for i := range a.Cells {
		if a.Cells[i].Name != b.Cells[i].Name || len(a.Cells[i].Inputs) != len(b.Cells[i].Inputs) {
			t.Fatalf("cell %d differs", i)
		}
		for j := range a.Cells[i].Inputs {
			if a.Cells[i].Inputs[j] != b.Cells[i].Inputs[j] {
				t.Fatalf("cell %d input %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(Params{Cells: 100, PrimaryIn: 10, PrimaryOut: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Params{Cells: 100, PrimaryIn: 10, PrimaryOut: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := a.NumCells() == b.NumCells()
	for i := 0; same && i < a.NumCells(); i++ {
		if len(a.Cells[i].Inputs) != len(b.Cells[i].Inputs) {
			same = false
			break
		}
		for j := range a.Cells[i].Inputs {
			if a.Cells[i].Inputs[j] != b.Cells[i].Inputs[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical wiring")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{Cells: 0, PrimaryIn: 1}); err == nil {
		t.Fatal("expected error for zero cells")
	}
	if _, err := Generate(Params{Cells: 1, PrimaryIn: 0}); err == nil {
		t.Fatal("expected error for zero inputs")
	}
	if _, err := Generate(Params{Cells: 1, PrimaryIn: 1, MaxInputs: 1}); err == nil {
		t.Fatal("expected error for MaxInputs < 2")
	}
}

// The Fig. 3 shape: mostly multi-output cells, a small ψ=0* bin, the
// bulk at ψ ≥ 1.
func TestGenerateDistributionShape(t *testing.T) {
	g, err := Generate(Params{Cells: 1000, PrimaryIn: 50, PrimaryOut: 20, Seed: 3, Clustering: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Distribution()
	single := float64(d.SingleOutput) / float64(d.Total)
	if single < 0.05 || single > 0.30 {
		t.Fatalf("single-output fraction = %.2f, want ~0.15", single)
	}
	multiZero := float64(d.MultiZero) / float64(d.Total)
	if multiZero > 0.25 {
		t.Fatalf("ψ=0* fraction = %.2f, too high", multiZero)
	}
	psiPos := 0
	for psi, n := range d.ByPsi {
		if psi < 1 {
			t.Fatalf("ByPsi key %d < 1", psi)
		}
		psiPos += n
	}
	if frac := float64(psiPos) / float64(d.Total); frac < 0.5 {
		t.Fatalf("ψ≥1 fraction = %.2f, want majority", frac)
	}
}

func TestGenerateCellPinsWithinXC3000Limits(t *testing.T) {
	g, err := Generate(Params{Cells: 500, PrimaryIn: 30, PrimaryOut: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		if len(c.Inputs) > 5 || len(c.Outputs) > 2 {
			t.Fatalf("cell %s has %d inputs / %d outputs", c.Name, len(c.Inputs), len(c.Outputs))
		}
		if len(c.Outputs) < 1 {
			t.Fatalf("cell %s has no outputs", c.Name)
		}
	}
}

func TestGenerateNoDuplicateNetsPerCell(t *testing.T) {
	g, err := Generate(Params{Cells: 300, PrimaryIn: 20, PrimaryOut: 10, Seed: 11, Clustering: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		seen := map[int32]bool{}
		for _, n := range c.Inputs {
			if seen[int32(n)] {
				t.Fatalf("cell %s connects net %d twice", c.Name, n)
			}
			seen[int32(n)] = true
		}
		for _, n := range c.Outputs {
			if seen[int32(n)] {
				t.Fatalf("cell %s output net %d collides", c.Name, n)
			}
			seen[int32(n)] = true
		}
	}
}

func TestSuiteCircuits(t *testing.T) {
	s := Suite()
	if len(s) != 9 {
		t.Fatalf("suite has %d circuits, want 9", len(s))
	}
	names := map[string]bool{}
	for _, c := range s {
		if names[c.Name] {
			t.Fatalf("duplicate circuit %s", c.Name)
		}
		names[c.Name] = true
		if c.Params.Cells != c.CLBs {
			t.Fatalf("%s: params/targets disagree", c.Name)
		}
	}
	for _, want := range []string{"c3540", "c6288", "s38584"} {
		if !names[want] {
			t.Fatalf("missing circuit %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	c, ok := ByName("s9234")
	if !ok || c.CLBs != 454 {
		t.Fatalf("ByName(s9234) = %+v, %v", c, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("ByName(nonesuch) should fail")
	}
}

// The generated substitutes must land near the Table II targets.
func TestSuiteMatchesTargets(t *testing.T) {
	for _, c := range Suite() {
		if testing.Short() && c.CLBs > 1000 {
			continue
		}
		g := build(t, c)
		if dev := math.Abs(float64(g.TotalArea()-c.CLBs)) / float64(c.CLBs); dev > 0.06 {
			t.Errorf("%s: CLBs = %d, target %d (dev %.0f%%)", c.Name, g.TotalArea(), c.CLBs, 100*dev)
		}
		iobs := g.NumTerminals()
		if dev := math.Abs(float64(iobs-c.IOBs)) / float64(c.IOBs); dev > 0.25 {
			t.Errorf("%s: IOBs = %d, target %d (dev %.0f%%)", c.Name, iobs, c.IOBs, 100*dev)
		}
		if g.NumDFF() != c.DFF {
			t.Errorf("%s: DFFs = %d, want %d", c.Name, g.NumDFF(), c.DFF)
		}
	}
}

func TestBuildMemoizes(t *testing.T) {
	c, _ := ByName("c3540")
	a := build(t, c)
	b := build(t, c)
	if a != b {
		t.Fatal("Build did not memoize")
	}
}

func TestSmall(t *testing.T) {
	c, _ := ByName("s38584")
	s := c.Small(10)
	if s.Params.Cells != 294 {
		t.Fatalf("scaled cells = %d", s.Params.Cells)
	}
	if _, err := s.Build(); err != nil {
		t.Fatalf("small build: %v", err)
	}
	if c.Small(1).Name != c.Name {
		t.Fatal("Small(1) should be identity")
	}
}

func TestSuiteIsConnected(t *testing.T) {
	for _, c := range Suite()[:4] {
		g := build(t, c)
		if comps := components(g); comps != 1 {
			t.Errorf("%s: %d components, want 1", c.Name, comps)
		}
	}
}

// components returns the number of connected components of g's cell
// graph (cells joined by shared nets).
func components(g *hypergraph.Graph) int {
	visited := make([]bool, len(g.Cells))
	var stack []hypergraph.CellID
	comps := 0
	for start := range g.Cells {
		if visited[start] {
			continue
		}
		comps++
		visited[start] = true
		stack = append(stack[:0], hypergraph.CellID(start))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, n := range g.CellNets(c) {
				for _, cn := range g.Nets[n].Conns {
					if !visited[cn.Cell] {
						visited[cn.Cell] = true
						stack = append(stack, cn.Cell)
					}
				}
			}
		}
	}
	return comps
}

func TestComponents(t *testing.T) {
	b := hypergraph.NewBuilder("one")
	a := b.InputNet("a")
	w := b.Net("w")
	b.AddCell(hypergraph.CellSpec{Inputs: []hypergraph.NetID{a}, Outputs: []hypergraph.NetID{w}})
	b.AddCell(hypergraph.CellSpec{Inputs: []hypergraph.NetID{w}, Outputs: []hypergraph.NetID{b.OutputNet("z")}})
	if got := components(b.MustBuild()); got != 1 {
		t.Fatalf("components = %d, want 1", got)
	}
	// Two disconnected islands.
	b = hypergraph.NewBuilder("two")
	a1 := b.InputNet("a1")
	z1 := b.OutputNet("z1")
	a2 := b.InputNet("a2")
	z2 := b.OutputNet("z2")
	b.AddCell(hypergraph.CellSpec{Inputs: []hypergraph.NetID{a1}, Outputs: []hypergraph.NetID{z1}})
	b.AddCell(hypergraph.CellSpec{Inputs: []hypergraph.NetID{a2}, Outputs: []hypergraph.NetID{z2}})
	if got := components(b.MustBuild()); got != 2 {
		t.Fatalf("components = %d, want 2", got)
	}
	if got := components(&hypergraph.Graph{}); got != 0 {
		t.Fatalf("empty components = %d", got)
	}
}

// Concurrent first builds of one circuit all return the graph the cache
// keeps. No other test builds the circuit, so the cache starts cold in
// any test order.
func TestBuildCacheConcurrent(t *testing.T) {
	c, _ := ByName("c3540")
	c = c.Small(3)
	var wg sync.WaitGroup
	graphs := make([]*hypergraph.Graph, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := c.Build()
			if err != nil {
				t.Error(err)
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Fatal("concurrent builds returned different graphs")
		}
	}
}

// build builds the benchmark circuit c, failing tb on an error.
func build(tb testing.TB, c Circuit) *hypergraph.Graph {
	tb.Helper()
	g, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
