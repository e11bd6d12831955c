package techmap

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/netlist"
)

// End-to-end: technology-mapped arithmetic circuits still compute
// arithmetic. This exercises wide-gate decomposition, cone covering,
// CLB packing and DFF absorption against ground truth.

func bitsIn(prefix string, w int, v uint64, in map[string]bool) {
	for i := 0; i < w; i++ {
		in[fmt.Sprintf("%s%d", prefix, i)] = v&(1<<uint(i)) != 0
	}
}

func bitsOut(prefix string, w int, out map[string]bool) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		if out[fmt.Sprintf("%s%d", prefix, i)] {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestMappedAdderComputesSum(t *testing.T) {
	const w = 8
	n, err := rippleAdder(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := r.Uint64() & 0xFF
		b := r.Uint64() & 0xFF
		in := map[string]bool{"cin": trial%2 == 0}
		bitsIn("a", w, a, in)
		bitsIn("b", w, b, in)
		out, err := sim.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		got := bitsOut("s", w, out)
		if out["cout"] {
			got |= 1 << w
		}
		want := a + b
		if trial%2 == 0 {
			want++
		}
		if got != want {
			t.Fatalf("mapped adder: %d+%d = %d, want %d", a, b, got, want)
		}
	}
}

func TestMappedMultiplierComputesProduct(t *testing.T) {
	const w = 6
	n, err := arrayMultiplier(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 3, DistantPackFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mul%d: %d gates -> %d CLBs", w, len(n.Gates), m.Graph.NumCells())
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a := r.Uint64() & (1<<w - 1)
		b := r.Uint64() & (1<<w - 1)
		in := map[string]bool{}
		bitsIn("a", w, a, in)
		bitsIn("b", w, b, in)
		out, err := sim.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsOut("p", 2*w, out); got != a*b {
			t.Fatalf("mapped multiplier: %d*%d = %d, want %d", a, b, got, a*b)
		}
	}
}

func TestMappedCounterCounts(t *testing.T) {
	const w = 6
	n, err := counter(w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph.NumDFF() != w {
		t.Fatalf("mapped counter has %d FFs, want %d", m.Graph.NumDFF(), w)
	}
	sim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := uint64(0); cyc < 80; cyc++ {
		out, err := sim.Step(map[string]bool{"en": true})
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsOut("q", w, out); got != cyc&(1<<w-1) {
			t.Fatalf("cycle %d: mapped count = %d", cyc, got)
		}
	}
}

func TestMappedALUMatchesGateLevel(t *testing.T) {
	n, err := aluSlice(6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gateSim, err := netlist.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	mapSim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		in := map[string]bool{}
		for _, pi := range n.Inputs {
			in[pi] = r.Intn(2) == 1
		}
		want, err1 := gateSim.Step(in)
		got, err2 := mapSim.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: %s differs", trial, k)
			}
		}
	}
}

// Wide LUT gates go through Shannon decomposition; behavior
// must survive mapping.
func TestMappedWideLut(t *testing.T) {
	tt := make([]bool, 1<<7)
	for p := range tt {
		ones := 0
		for b := 0; b < 7; b++ {
			if p&(1<<uint(b)) != 0 {
				ones++
			}
		}
		tt[p] = ones%3 == 1
	}
	ins := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6"}
	n := &netlist.Netlist{
		Name: "wide", Inputs: ins, Outputs: []string{"y"},
		Gates: []netlist.Gate{{Name: "g", Type: netlist.Lut, Out: "y", Ins: ins, TT: tt}},
	}
	m, err := Map(n, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	gateSim, err := netlist.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	mapSim, err := NewSimulator(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 64; trial++ {
		in := map[string]bool{}
		for _, pi := range ins {
			in[pi] = r.Intn(2) == 1
		}
		want, err1 := gateSim.Step(in)
		got, err2 := mapSim.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got["y"] != want["y"] {
			t.Fatalf("trial %d: wide LUT mis-mapped", trial)
		}
	}
}

// LUT mapping compresses logic depth (4-input cones absorb several
// gate levels).
func TestMappedDepthBelowGateDepth(t *testing.T) {
	n, err := rippleAdder(12)
	if err != nil {
		t.Fatal(err)
	}
	gateDepth, err := n.Depth()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(n, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lutDepth, err := m.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if lutDepth >= gateDepth {
		t.Fatalf("LUT depth %d should be below gate depth %d", lutDepth, gateDepth)
	}
	if lutDepth < 1 {
		t.Fatalf("depth = %d", lutDepth)
	}
}
