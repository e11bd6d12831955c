package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fullAdder is the canonical test circuit: s = a^b^cin, cout = maj.
func fullAdder() *Netlist {
	return &Netlist{
		Name:    "fa",
		Inputs:  []string{"a", "b", "cin"},
		Outputs: []string{"s", "cout"},
		Gates: []Gate{
			{Name: "x1", Type: Xor, Out: "ab", Ins: []string{"a", "b"}},
			{Name: "x2", Type: Xor, Out: "s", Ins: []string{"ab", "cin"}},
			{Name: "a1", Type: And, Out: "t1", Ins: []string{"a", "b"}},
			{Name: "a2", Type: And, Out: "t2", Ins: []string{"ab", "cin"}},
			{Name: "o1", Type: Or, Out: "cout", Ins: []string{"t1", "t2"}},
		},
	}
}

func TestGateTypeEval(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, false}, false},
		{Not, []bool{true}, false},
		{Buf, []bool{true}, true},
	}
	for _, c := range cases {
		if got := c.t.Eval(c.in); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestParseGateType(t *testing.T) {
	for i := And; i <= Dff; i++ {
		got, ok := ParseGateType(i.String())
		if !ok || got != i {
			t.Fatalf("round trip of %v failed", i)
		}
	}
	if _, ok := ParseGateType("mux"); ok {
		t.Fatal("mux should not parse")
	}
}

func TestFullAdderTruthTable(t *testing.T) {
	sim, err := NewSimulator(fullAdder())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		a, b, cin := v&1 == 1, v&2 == 2, v&4 == 4
		out, err := sim.Step(map[string]bool{"a": a, "b": b, "cin": cin})
		if err != nil {
			t.Fatal(err)
		}
		sum := a != b != cin
		carry := (a && b) || (cin && (a != b))
		if out["s"] != sum || out["cout"] != carry {
			t.Fatalf("fa(%v,%v,%v) = %v, want s=%v cout=%v", a, b, cin, out, sum, carry)
		}
	}
}

func TestValidateCatchesDoubleDriver(t *testing.T) {
	n := fullAdder()
	n.Gates = append(n.Gates, Gate{Name: "dup", Type: Buf, Out: "s", Ins: []string{"a"}})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "driven by") {
		t.Fatalf("want double-driver error, got %v", err)
	}
}

func TestValidateCatchesUndrivenInput(t *testing.T) {
	n := fullAdder()
	n.Gates[0].Ins[0] = "ghost"
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("want undriven error, got %v", err)
	}
}

func TestValidateCatchesUndrivenOutput(t *testing.T) {
	n := fullAdder()
	n.Outputs = append(n.Outputs, "nope")
	if err := n.Validate(); err == nil {
		t.Fatal("want undriven-output error")
	}
}

func TestValidateCatchesCombinationalCycle(t *testing.T) {
	n := &Netlist{
		Name:    "loop",
		Inputs:  []string{"a"},
		Outputs: []string{"y"},
		Gates: []Gate{
			{Name: "g1", Type: And, Out: "x", Ins: []string{"a", "y"}},
			{Name: "g2", Type: Buf, Out: "y", Ins: []string{"x"}},
		},
	}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestSequentialCycleAllowed(t *testing.T) {
	// Toggle flip-flop: q' = !q.
	n := &Netlist{
		Name:    "tff",
		Inputs:  []string{"en"},
		Outputs: []string{"q"},
		Gates: []Gate{
			{Name: "inv", Type: Not, Out: "d", Ins: []string{"q"}},
			{Name: "ff", Type: Dff, Out: "q", Ins: []string{"d"}},
		},
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("sequential loop should validate: %v", err)
	}
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	want := false
	for cyc := 0; cyc < 6; cyc++ {
		out, err := sim.Step(nil)
		if err != nil {
			t.Fatal(err)
		}
		if out["q"] != want {
			t.Fatalf("cycle %d: q = %v, want %v", cyc, out["q"], want)
		}
		want = !want
	}
}

func TestValidateArity(t *testing.T) {
	n := &Netlist{
		Name: "bad", Inputs: []string{"a"}, Outputs: []string{"y"},
		Gates: []Gate{{Name: "g", Type: Not, Out: "y", Ins: []string{"a", "a"}}},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("want arity error")
	}
}

func TestValidateDuplicateGateName(t *testing.T) {
	n := &Netlist{
		Name: "bad", Inputs: []string{"a"}, Outputs: []string{"y", "z"},
		Gates: []Gate{
			{Name: "g", Type: Buf, Out: "y", Ins: []string{"a"}},
			{Name: "g", Type: Buf, Out: "z", Ins: []string{"a"}},
		},
	}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate gate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

func TestShiftRegister(t *testing.T) {
	n := &Netlist{
		Name:    "sr2",
		Inputs:  []string{"d"},
		Outputs: []string{"q1"},
		Gates: []Gate{
			{Name: "f0", Type: Dff, Out: "q0", Ins: []string{"d"}},
			{Name: "f1", Type: Dff, Out: "q1", Ins: []string{"q0"}},
		},
	}
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false}
	var got []bool
	for _, d := range seq {
		out, err := sim.Step(map[string]bool{"d": d})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out["q1"])
	}
	want := []bool{false, false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: q1 = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	fa := fullAdder()
	var buf bytes.Buffer
	if err := Write(&buf, fa); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != fa.Name || len(back.Gates) != len(fa.Gates) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// Functional equality over all input vectors.
	s1, err := NewSimulator(fa)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSimulator(back)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		in := map[string]bool{"a": v&1 == 1, "b": v&2 == 2, "cin": v&4 == 4}
		o1, _ := s1.Step(in)
		o2, err := s2.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range o1 {
			if o1[k] != o2[k] {
				t.Fatalf("vector %d: output %s differs", v, k)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"missing circuit": "input a\n",
		"bad type":        "circuit c\ninput a\noutput y\nmux y a\n",
		"short gate":      "circuit c\ninput a\noutput y\nand y\n",
		"dup circuit":     "circuit a\ncircuit b\n",
		"invalid":         "circuit c\ninput a\noutput y\nand y ghost a\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	src := "# header\ncircuit c\n\ninput a b\noutput y\n# body\nand y a b\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Gates) != 1 || n.Gates[0].Type != And {
		t.Fatalf("parse wrong: %+v", n)
	}
}

func TestStats(t *testing.T) {
	s := fullAdder().Stats()
	if s.Gates != 5 || s.DFFs != 0 || s.Inputs != 3 || s.Outputs != 2 || s.Nets != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRandomValidAndDeterministic(t *testing.T) {
	p := RandomParams{Gates: 300, Inputs: 12, Outputs: 6, DffFrac: 0.15, Seed: 3}
	a, err := Random(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := Random(p)
	if err != nil {
		t.Fatal(err)
	}
	var wa, wb bytes.Buffer
	if err := Write(&wa, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&wb, b); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Fatal("Random not deterministic")
	}
	if a.NumDFF() == 0 {
		t.Fatal("expected some flip-flops")
	}
}

func TestRandomRejectsBadParams(t *testing.T) {
	if _, err := Random(RandomParams{Gates: 0, Inputs: 2}); err == nil {
		t.Fatal("want error for zero gates")
	}
	if _, err := Random(RandomParams{Gates: 1, Inputs: 1}); err == nil {
		t.Fatal("want error for one input")
	}
}

// Property: random circuits always validate, simulate without error,
// and survive a text round trip with identical behavior.
func TestPropertyRandomRoundTripBehavior(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		n, err := Random(RandomParams{Gates: 60, Inputs: 6, Outputs: 4, DffFrac: 0.2, Seed: seed})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		s1, err := NewSimulator(n)
		if err != nil {
			return false
		}
		s2, err := NewSimulator(back)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 8; cyc++ {
			in := map[string]bool{}
			for _, pi := range n.Inputs {
				in[pi] = r.Intn(2) == 1
			}
			o1, err1 := s1.Step(in)
			o2, err2 := s2.Step(in)
			if err1 != nil || err2 != nil {
				return false
			}
			for k := range o1 {
				if o1[k] != o2[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDepth(t *testing.T) {
	fa := fullAdder()
	d, err := fa.Depth()
	if err != nil {
		t.Fatal(err)
	}
	// Longest path: a -> ab -> t2 -> cout = 3 gates.
	if d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
	// Registers reset depth.
	seq := &Netlist{
		Name: "seq", Inputs: []string{"a"}, Outputs: []string{"y"},
		Gates: []Gate{
			{Name: "g1", Type: Not, Out: "w", Ins: []string{"a"}},
			{Name: "f", Type: Dff, Out: "q", Ins: []string{"w"}},
			{Name: "g2", Type: Not, Out: "y", Ins: []string{"q"}},
		},
	}
	d, err = seq.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("sequential depth = %d, want 1", d)
	}
}

// LUT gates survive the native text format.
func TestTextFormatLutRoundTrip(t *testing.T) {
	n := &Netlist{
		Name: "l", Inputs: []string{"a", "b"}, Outputs: []string{"y"},
		Gates: []Gate{{Name: "g_y", Type: Lut, Out: "y", Ins: []string{"a", "b"}, TT: []bool{false, true, true, false}}},
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(back)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Step(map[string]bool{"a": true, "b": false})
	if err != nil {
		t.Fatal(err)
	}
	if !out["y"] {
		t.Fatal("xor LUT lost through text round trip")
	}
}

func TestLutValidation(t *testing.T) {
	n := &Netlist{
		Name: "bad", Inputs: []string{"a"}, Outputs: []string{"y"},
		Gates: []Gate{{Name: "g", Type: Lut, Out: "y", Ins: []string{"a"}, TT: []bool{true}}},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("short truth table should fail")
	}
	n.Gates[0].TT = nil
	n.Gates[0].Type = And
	n.Gates[0].Ins = []string{"a", "a"}
	n.Gates[0].TT = []bool{true}
	if err := n.Validate(); err == nil {
		t.Fatal("truth table on non-LUT should fail")
	}
}
