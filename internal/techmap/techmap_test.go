package techmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgapart/internal/netlist"
)

func fullAdder() *netlist.Netlist {
	return &netlist.Netlist{
		Name:    "fa",
		Inputs:  []string{"a", "b", "cin"},
		Outputs: []string{"s", "cout"},
		Gates: []netlist.Gate{
			{Name: "x1", Type: netlist.Xor, Out: "ab", Ins: []string{"a", "b"}},
			{Name: "x2", Type: netlist.Xor, Out: "s", Ins: []string{"ab", "cin"}},
			{Name: "a1", Type: netlist.And, Out: "t1", Ins: []string{"a", "b"}},
			{Name: "a2", Type: netlist.And, Out: "t2", Ins: []string{"ab", "cin"}},
			{Name: "o1", Type: netlist.Or, Out: "cout", Ins: []string{"t1", "t2"}},
		},
	}
}

func TestMapFullAdder(t *testing.T) {
	m, err := Map(fullAdder(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both outputs are 3-input functions of {a,b,cin}: the cover should
	// collapse to at most 2 LUTs, packable into a single CLB.
	if got := m.Graph.NumCells(); got != 1 {
		t.Fatalf("cells = %d, want 1 (s and cout share a CLB)", got)
	}
	if m.Graph.NumTerminals() != 5 {
		t.Fatalf("terminals = %d, want 5", m.Graph.NumTerminals())
	}
}

func TestMapEquivalenceFullAdder(t *testing.T) {
	fa := fullAdder()
	m, err := Map(fa, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := netlist.NewSimulator(fa)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		in := map[string]bool{"a": v&1 == 1, "b": v&2 == 2, "cin": v&4 == 4}
		want, err := ref.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("vector %d: %s = %v, want %v", v, k, got[k], want[k])
			}
		}
	}
}

func TestLUTEval(t *testing.T) {
	l := LUT{Support: []string{"a", "b"}, TT: 0b0110, Out: "y"} // xor
	cases := [][3]bool{{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false}}
	for _, c := range cases {
		if got := l.Eval([]bool{c[0], c[1]}); got != c[2] {
			t.Fatalf("xor(%v,%v) = %v", c[0], c[1], got)
		}
	}
}

func TestDecomposeWideGate(t *testing.T) {
	n := &netlist.Netlist{
		Name:    "wide",
		Inputs:  []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		Outputs: []string{"y"},
		Gates: []netlist.Gate{
			{Name: "big", Type: netlist.Nand, Out: "y", Ins: []string{"a", "b", "c", "d", "e", "f", "g", "h"}},
		},
	}
	m, err := Map(n, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Graph.Cells {
		if l := len(m.Graph.Cells[i].Inputs); l > MaxCLBInputs {
			t.Fatalf("cell %d has %d inputs", i, l)
		}
	}
	// Behavior: y = nand over 8 inputs.
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	allOnes := map[string]bool{}
	for _, pi := range n.Inputs {
		allOnes[pi] = true
	}
	out, err := sim.Step(allOnes)
	if err != nil {
		t.Fatal(err)
	}
	if out["y"] != false {
		t.Fatal("nand of all ones should be false")
	}
	allOnes["d"] = false
	out, err = sim.Step(allOnes)
	if err != nil {
		t.Fatal(err)
	}
	if out["y"] != true {
		t.Fatal("nand with a zero input should be true")
	}
}

func TestDFFAbsorption(t *testing.T) {
	// LUT feeding only a flip-flop should merge into one registered CLB
	// output.
	n := &netlist.Netlist{
		Name:    "reg",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"q"},
		Gates: []netlist.Gate{
			{Name: "g", Type: netlist.And, Out: "w", Ins: []string{"a", "b"}},
			{Name: "f", Type: netlist.Dff, Out: "q", Ins: []string{"w"}},
		},
	}
	m, err := Map(n, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph.NumCells() != 1 {
		t.Fatalf("cells = %d, want 1 (absorbed DFF)", m.Graph.NumCells())
	}
	if m.Graph.NumDFF() != 1 {
		t.Fatalf("dffs = %d, want 1", m.Graph.NumDFF())
	}
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Step(map[string]bool{"a": true, "b": true})
	if err != nil {
		t.Fatal(err)
	}
	if out["q"] {
		t.Fatal("registered output should lag one cycle")
	}
	out, err = sim.Step(map[string]bool{"a": false, "b": false})
	if err != nil {
		t.Fatal(err)
	}
	if !out["q"] {
		t.Fatal("q should now show last cycle's AND")
	}
}

func TestStandaloneDFF(t *testing.T) {
	// A flip-flop fed by a multi-fanout net becomes its own cell.
	n := &netlist.Netlist{
		Name:    "ff2",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"q", "y"},
		Gates: []netlist.Gate{
			{Name: "g", Type: netlist.And, Out: "w", Ins: []string{"a", "b"}},
			{Name: "f", Type: netlist.Dff, Out: "q", Ins: []string{"w"}},
			{Name: "h", Type: netlist.Not, Out: "y", Ins: []string{"w"}},
		},
	}
	m, err := Map(n, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph.NumDFF() != 1 {
		t.Fatalf("dffs = %d", m.Graph.NumDFF())
	}
	if err := m.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMappedCellLimits(t *testing.T) {
	n, err := netlist.Random(netlist.RandomParams{Gates: 400, Inputs: 16, Outputs: 8, DffFrac: 0.15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 5, DistantPackFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Graph.Cells {
		c := &m.Graph.Cells[i]
		if len(c.Inputs) > MaxCLBInputs || len(c.Outputs) > 2 {
			t.Fatalf("cell %s: %d in / %d out", c.Name, len(c.Inputs), len(c.Outputs))
		}
		if c.DFFs > 2 {
			t.Fatalf("cell %s: %d flip-flops", c.Name, c.DFFs)
		}
	}
	// Mapping should compress the gate count substantially.
	if m.Graph.NumCells() >= n.Stats().Gates {
		t.Fatalf("no compression: %d cells from %d gates", m.Graph.NumCells(), n.Stats().Gates)
	}
}

// The central property: mapping preserves sequential behavior on
// random circuits over random stimulus.
func TestPropertyMapPreservesBehavior(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		n, err := netlist.Random(netlist.RandomParams{
			Gates: 120, Inputs: 8, Outputs: 5, DffFrac: 0.2, Seed: seed,
		})
		if err != nil {
			return false
		}
		m, err := Map(n, Options{Seed: seed, DistantPackFrac: 0.15})
		if err != nil {
			return false
		}
		if err := m.Graph.Validate(); err != nil {
			return false
		}
		gateSim, err := netlist.NewSimulator(n)
		if err != nil {
			return false
		}
		mapSim, err := NewSimulator(m)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed + 99))
		for cyc := 0; cyc < 12; cyc++ {
			in := map[string]bool{}
			for _, pi := range n.Inputs {
				in[pi] = r.Intn(2) == 1
			}
			want, err1 := gateSim.Step(in)
			got, err2 := mapSim.Step(in)
			if err1 != nil || err2 != nil {
				return false
			}
			for k := range want {
				if got[k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Mapped circuits must show the Fig. 3 ingredients — a meaningful
// population of multi-output cells with positive replication
// potential. (A greedy cover packs less densely than XACT's ~85%
// two-output CLBs; the bench generator models that density directly.)
func TestMappedDistributionShape(t *testing.T) {
	n, err := netlist.Random(netlist.RandomParams{Gates: 1500, Inputs: 24, Outputs: 10, DffFrac: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Graph.Distribution()
	multi := d.Total - d.SingleOutput
	if frac := float64(multi) / float64(d.Total); frac < 0.2 {
		t.Fatalf("multi-output fraction = %.2f, want ≥ 0.2", frac)
	}
	psiPos := 0
	for _, c := range d.ByPsi {
		psiPos += c
	}
	if psiPos == 0 {
		t.Fatal("no cells with positive replication potential")
	}
}
