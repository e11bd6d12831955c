package techmap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fpgapart/internal/netlist"
)

// Structured circuit generators: real arithmetic and sequential
// netlists in the spirit of the ISCAS benchmarks (c6288 is an array
// multiplier). They give the mapper and partitioner inputs with real
// logic structure, and their behavior is checked against Go integer
// arithmetic in the tests.

// rippleAdder builds an n-bit ripple-carry adder: inputs a0..a{n-1},
// b0..b{n-1}, cin; outputs s0..s{n-1}, cout.
func rippleAdder(n int) (*netlist.Netlist, error) {
	if n < 1 {
		return nil, fmt.Errorf("netlist: adder width %d", n)
	}
	nl := &netlist.Netlist{Name: fmt.Sprintf("add%d", n)}
	for i := 0; i < n; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("b%d", i))
	}
	nl.Inputs = append(nl.Inputs, "cin")
	carry := "cin"
	for i := 0; i < n; i++ {
		carry = fullAdderInto(nl, fmt.Sprintf("fa%d", i),
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), carry, fmt.Sprintf("s%d", i))
		nl.Outputs = append(nl.Outputs, fmt.Sprintf("s%d", i))
	}
	// Promote the last carry to the cout output via a buffer.
	nl.Gates = append(nl.Gates, netlist.Gate{Name: "gcout", Type: netlist.Buf, Out: "cout", Ins: []string{carry}})
	nl.Outputs = append(nl.Outputs, "cout")
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// fullAdderInto emits sum and returns the carry-out net.
func fullAdderInto(nl *netlist.Netlist, prefix, a, b, cin, sum string) string {
	ab := prefix + "_ab"
	t1 := prefix + "_t1"
	t2 := prefix + "_t2"
	cout := prefix + "_c"
	nl.Gates = append(nl.Gates,
		netlist.Gate{Name: prefix + "_x1", Type: netlist.Xor, Out: ab, Ins: []string{a, b}},
		netlist.Gate{Name: prefix + "_x2", Type: netlist.Xor, Out: sum, Ins: []string{ab, cin}},
		netlist.Gate{Name: prefix + "_a1", Type: netlist.And, Out: t1, Ins: []string{a, b}},
		netlist.Gate{Name: prefix + "_a2", Type: netlist.And, Out: t2, Ins: []string{ab, cin}},
		netlist.Gate{Name: prefix + "_o1", Type: netlist.Or, Out: cout, Ins: []string{t1, t2}},
	)
	return cout
}

// arrayMultiplier builds an n×n-bit array multiplier (the c6288
// structure): inputs a0.., b0..; outputs p0..p{2n-1}.
func arrayMultiplier(n int) (*netlist.Netlist, error) {
	if n < 1 {
		return nil, fmt.Errorf("netlist: multiplier width %d", n)
	}
	nl := &netlist.Netlist{Name: fmt.Sprintf("mul%d", n)}
	for i := 0; i < n; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("b%d", i))
	}
	// Partial products pp[i][j] = a_i AND b_j.
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			net := fmt.Sprintf("pp%d_%d", i, j)
			nl.Gates = append(nl.Gates, netlist.Gate{
				Name: "g" + net, Type: netlist.And, Out: net,
				Ins: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j)},
			})
			pp[i][j] = net
		}
	}
	// Column-wise carry-save reduction with full/half adders.
	cols := make([][]string, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cols[i+j] = append(cols[i+j], pp[i][j])
		}
	}
	fresh := 0
	tmp := func(kind string) string {
		fresh++
		return fmt.Sprintf("%s%d", kind, fresh)
	}
	for c := 0; c < 2*n; c++ {
		for len(cols[c]) > 1 {
			if len(cols[c]) >= 3 {
				a, b, ci := cols[c][0], cols[c][1], cols[c][2]
				cols[c] = cols[c][3:]
				s := tmp("ms")
				co := fullAdderInto(nl, tmp("mfa"), a, b, ci, s)
				cols[c] = append(cols[c], s)
				if c+1 < 2*n {
					cols[c+1] = append(cols[c+1], co)
				}
			} else {
				a, b := cols[c][0], cols[c][1]
				cols[c] = cols[c][2:]
				s, co := tmp("hs"), tmp("hc")
				nl.Gates = append(nl.Gates,
					netlist.Gate{Name: "g" + s, Type: netlist.Xor, Out: s, Ins: []string{a, b}},
					netlist.Gate{Name: "g" + co, Type: netlist.And, Out: co, Ins: []string{a, b}},
				)
				cols[c] = append(cols[c], s)
				if c+1 < 2*n {
					cols[c+1] = append(cols[c+1], co)
				}
			}
		}
	}
	for c := 0; c < 2*n; c++ {
		out := fmt.Sprintf("p%d", c)
		if len(cols[c]) == 1 {
			nl.Gates = append(nl.Gates, netlist.Gate{Name: "g" + out, Type: netlist.Buf, Out: out, Ins: []string{cols[c][0]}})
		} else {
			// Top column can be empty for n = 1.
			nl.Gates = append(nl.Gates, netlist.Gate{Name: "g" + out, Type: netlist.Xor, Out: out, Ins: []string{pp[0][0], pp[0][0]}})
		}
		nl.Outputs = append(nl.Outputs, out)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// counter builds an n-bit synchronous binary counter with enable:
// input en; outputs q0..q{n-1}. Each cycle with en=1 increments.
func counter(n int) (*netlist.Netlist, error) {
	if n < 1 {
		return nil, fmt.Errorf("netlist: counter width %d", n)
	}
	nl := &netlist.Netlist{Name: fmt.Sprintf("cnt%d", n), Inputs: []string{"en"}}
	// carry chain: c0 = en; ci+1 = ci AND qi; di = qi XOR ci.
	carry := "en"
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("q%d", i)
		d := fmt.Sprintf("d%d", i)
		nl.Gates = append(nl.Gates,
			netlist.Gate{Name: "gx" + q, Type: netlist.Xor, Out: d, Ins: []string{q, carry}},
			netlist.Gate{Name: "ff" + q, Type: netlist.Dff, Out: q, Ins: []string{d}},
		)
		if i < n-1 {
			nc := fmt.Sprintf("c%d", i+1)
			nl.Gates = append(nl.Gates, netlist.Gate{Name: "ga" + q, Type: netlist.And, Out: nc, Ins: []string{carry, q}})
			carry = nc
		}
		nl.Outputs = append(nl.Outputs, q)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// lfsr builds an n-bit Fibonacci linear feedback shift register with
// taps at the final and first stage (x^n + x + 1 style): input seedIn
// (ORed into the feedback so the register can leave the all-zero
// state); outputs q0..q{n-1}.
func lfsr(n int) (*netlist.Netlist, error) {
	if n < 2 {
		return nil, fmt.Errorf("netlist: LFSR width %d", n)
	}
	nl := &netlist.Netlist{Name: fmt.Sprintf("lfsr%d", n), Inputs: []string{"seedIn"}}
	fb := "fb"
	nl.Gates = append(nl.Gates,
		netlist.Gate{Name: "gfb0", Type: netlist.Xor, Out: "fbx", Ins: []string{fmt.Sprintf("q%d", n-1), "q0"}},
		netlist.Gate{Name: "gfb1", Type: netlist.Or, Out: fb, Ins: []string{"fbx", "seedIn"}},
	)
	prev := fb
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("q%d", i)
		nl.Gates = append(nl.Gates, netlist.Gate{Name: "ff" + q, Type: netlist.Dff, Out: q, Ins: []string{prev}})
		prev = q
		nl.Outputs = append(nl.Outputs, q)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// aluSlice builds a w-bit mini-ALU: op selects between ADD (op=0) and
// bitwise AND/XOR combinations; inputs a*, b*, op0, op1; outputs y*.
// The selection logic gives the mapper multi-output cones with shared
// and private inputs.
func aluSlice(w int) (*netlist.Netlist, error) {
	if w < 1 {
		return nil, fmt.Errorf("netlist: ALU width %d", w)
	}
	nl := &netlist.Netlist{Name: fmt.Sprintf("alu%d", w), Inputs: []string{"op0", "op1"}}
	for i := 0; i < w; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < w; i++ {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("b%d", i))
	}
	// ADD path.
	carry := "op1" // borrow op1 as carry-in for variety
	for i := 0; i < w; i++ {
		carry = fullAdderInto(nl, fmt.Sprintf("afa%d", i),
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), carry, fmt.Sprintf("sum%d", i))
	}
	for i := 0; i < w; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		and := fmt.Sprintf("and%d", i)
		xor := fmt.Sprintf("xr%d", i)
		nl.Gates = append(nl.Gates,
			netlist.Gate{Name: "g" + and, Type: netlist.And, Out: and, Ins: []string{a, b}},
			netlist.Gate{Name: "g" + xor, Type: netlist.Xor, Out: xor, Ins: []string{a, b}},
		)
		// y = op0 ? (op1 ? and : xor) : sum   via AND-OR selection.
		selA := fmt.Sprintf("sa%d", i)
		selX := fmt.Sprintf("sx%d", i)
		selS := fmt.Sprintf("ss%d", i)
		nop0 := fmt.Sprintf("n0_%d", i)
		y := fmt.Sprintf("y%d", i)
		nl.Gates = append(nl.Gates,
			netlist.Gate{Name: "g" + nop0, Type: netlist.Not, Out: nop0, Ins: []string{"op0"}},
			netlist.Gate{Name: "g" + selA, Type: netlist.And, Out: selA, Ins: []string{"op0", "op1", and}},
			netlist.Gate{Name: "g" + selX, Type: netlist.And, Out: selX, Ins: []string{"op0", fmt.Sprintf("n1_%d", i), xor}},
			netlist.Gate{Name: "gn1_" + fmt.Sprint(i), Type: netlist.Not, Out: fmt.Sprintf("n1_%d", i), Ins: []string{"op1"}},
			netlist.Gate{Name: "g" + selS, Type: netlist.And, Out: selS, Ins: []string{nop0, fmt.Sprintf("sum%d", i)}},
			netlist.Gate{Name: "g" + y, Type: netlist.Or, Out: y, Ins: []string{selA, selX, selS}},
		)
		nl.Outputs = append(nl.Outputs, y)
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return nl, nil
}

// Property: the ripple adder computes a+b+cin for all widths 1..8.
func TestRippleAdderMatchesArithmetic(t *testing.T) {
	for w := 1; w <= 8; w++ {
		add, err := rippleAdder(w)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(add)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < 40; trial++ {
			a := r.Uint64() & (1<<uint(w) - 1)
			b := r.Uint64() & (1<<uint(w) - 1)
			cin := r.Intn(2)
			in := map[string]bool{"cin": cin == 1}
			bitsIn("a", w, a, in)
			bitsIn("b", w, b, in)
			out, err := sim.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			got := bitsOut("s", w, out)
			if out["cout"] {
				got |= 1 << uint(w)
			}
			if want := a + b + uint64(cin); got != want {
				t.Fatalf("w=%d: %d+%d+%d = %d, want %d", w, a, b, cin, got, want)
			}
		}
	}
}

// Property: the array multiplier computes a*b.
func TestArrayMultiplierMatchesArithmetic(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 6} {
		mul, err := arrayMultiplier(w)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewSimulator(mul)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(w) * 31))
		for trial := 0; trial < 40; trial++ {
			a := r.Uint64() & (1<<uint(w) - 1)
			b := r.Uint64() & (1<<uint(w) - 1)
			in := map[string]bool{}
			bitsIn("a", w, a, in)
			bitsIn("b", w, b, in)
			out, err := sim.Step(in)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := bitsOut("p", 2*w, out), a*b; got != want {
				t.Fatalf("w=%d: %d*%d = %d, want %d", w, a, b, got, want)
			}
		}
	}
}

// Property (quick): 8-bit multiplication is correct on random inputs.
func TestPropertyMultiplier8(t *testing.T) {
	mul, err := arrayMultiplier(8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(mul)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		in := map[string]bool{}
		bitsIn("a", 8, uint64(a), in)
		bitsIn("b", 8, uint64(b), in)
		out, err := sim.Step(in)
		if err != nil {
			return false
		}
		return bitsOut("p", 16, out) == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The counter counts: after k enabled cycles the outputs read k mod 2^n.
func TestCounterCounts(t *testing.T) {
	const w = 5
	cnt, err := counter(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(cnt)
	if err != nil {
		t.Fatal(err)
	}
	val := uint64(0)
	for cyc := 0; cyc < 70; cyc++ {
		en := cyc%3 != 0 // hold every third cycle
		out, err := sim.Step(map[string]bool{"en": en})
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsOut("q", w, out); got != val {
			t.Fatalf("cycle %d: count = %d, want %d", cyc, got, val)
		}
		if en {
			val = (val + 1) & (1<<w - 1)
		}
	}
}

// The LFSR leaves the zero state under seedIn and then cycles without
// repeating immediately.
func TestLFSRProgresses(t *testing.T) {
	l, err := lfsr(6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(l)
	if err != nil {
		t.Fatal(err)
	}
	// One seed pulse, then free-run.
	if _, err := sim.Step(map[string]bool{"seedIn": true}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	prev := uint64(0)
	for cyc := 0; cyc < 30; cyc++ {
		out, err := sim.Step(nil)
		if err != nil {
			t.Fatal(err)
		}
		v := bitsOut("q", 6, out)
		if cyc > 2 && v == prev {
			t.Fatalf("cycle %d: LFSR stuck at %d", cyc, v)
		}
		prev = v
		seen[v] = true
	}
	if len(seen) < 8 {
		t.Fatalf("LFSR visited only %d states", len(seen))
	}
}

// ALU: op0=0 -> a+b+op1; op0=1,op1=1 -> AND; op0=1,op1=0 -> XOR.
func TestALUSliceOps(t *testing.T) {
	const w = 4
	alu, err := aluSlice(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(alu)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		a := r.Uint64() & 0xF
		b := r.Uint64() & 0xF
		op0 := r.Intn(2) == 1
		op1 := r.Intn(2) == 1
		in := map[string]bool{"op0": op0, "op1": op1}
		bitsIn("a", w, a, in)
		bitsIn("b", w, b, in)
		out, err := sim.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		switch {
		case !op0 && !op1:
			want = (a + b) & 0xF
		case !op0 && op1:
			want = (a + b + 1) & 0xF
		case op0 && op1:
			want = a & b
		default:
			want = a ^ b
		}
		if got := bitsOut("y", w, out); got != want {
			t.Fatalf("a=%d b=%d op0=%v op1=%v: y=%d, want %d", a, b, op0, op1, got, want)
		}
	}
}

func TestGeneratorsRejectBadWidths(t *testing.T) {
	if _, err := rippleAdder(0); err == nil {
		t.Error("adder width 0")
	}
	if _, err := arrayMultiplier(0); err == nil {
		t.Error("multiplier width 0")
	}
	if _, err := counter(0); err == nil {
		t.Error("counter width 0")
	}
	if _, err := lfsr(1); err == nil {
		t.Error("LFSR width 1")
	}
	if _, err := aluSlice(0); err == nil {
		t.Error("ALU width 0")
	}
}

func TestMultiplierSizeGrowsQuadratically(t *testing.T) {
	m4, _ := arrayMultiplier(4)
	m8, _ := arrayMultiplier(8)
	if len(m8.Gates) < 3*len(m4.Gates) {
		t.Fatalf("8-bit multiplier (%d gates) should be much larger than 4-bit (%d)",
			len(m8.Gates), len(m4.Gates))
	}
}

func TestDepthAdderGrowsWithWidth(t *testing.T) {
	a4, _ := rippleAdder(4)
	a8, _ := rippleAdder(8)
	d4, err := a4.Depth()
	if err != nil {
		t.Fatal(err)
	}
	d8, err := a8.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d8 <= d4 {
		t.Fatalf("ripple depth should grow: %d vs %d", d4, d8)
	}
}
