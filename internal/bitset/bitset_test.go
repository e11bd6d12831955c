package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// equal reports whether v and w have identical length and bits.
func equal(v, w Vector) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
	if v.Norm() != 0 {
		t.Fatalf("Norm = %d, want 0", v.Norm())
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetBool(t *testing.T) {
	v := New(4)
	v.SetBool(2, true)
	v.SetBool(3, false)
	if !v.Get(2) || v.Get(3) {
		t.Fatalf("SetBool wrong: %v", v)
	}
}

func TestFromBits(t *testing.T) {
	v := FromBits(1, 1, 0)
	if v.Len() != 3 || !v.Get(0) || !v.Get(1) || v.Get(2) {
		t.Fatalf("FromBits(1,1,0) = %v", v)
	}
	if v.String() != "[1 1 0]^T" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestFromBitsPanicsOnBadDigit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for element 2")
		}
	}()
	FromBits(0, 2)
}

// TestPaperFigure2 reproduces the Section II worked example: the cell
// with A_X1 = [1 1 1 1 0]^T and A_X2 = [0 0 0 1 1]^T has a replication
// potential of 4, computed per Eq. (4) as
// |Ā_X2 ∧ A_X1| + |Ā_X1 ∧ A_X2|.
func TestPaperFigure2(t *testing.T) {
	aX1 := FromBits(1, 1, 1, 1, 0)
	aX2 := FromBits(0, 0, 0, 1, 1)
	psi := aX1.And(aX2.Not()).Norm() + aX2.And(aX1.Not()).Norm()
	if psi != 4 {
		t.Fatalf("replication potential = %d, want 4", psi)
	}
}

// TestPaperSectionIIOps checks the three binary operations exactly as
// the paper illustrates them.
func TestPaperSectionIIOps(t *testing.T) {
	aX := FromBits(1, 1, 0)
	if got := aX.Not(); !equal(got, FromBits(0, 0, 1)) {
		t.Fatalf("complement = %v", got)
	}
	aX2 := FromBits(0, 1, 1)
	if got := aX.And(aX2); !equal(got, FromBits(0, 1, 0)) {
		t.Fatalf("AND = %v", got)
	}
	if got := FromBits(0, 1, 1).Norm(); got != 2 {
		t.Fatalf("norm = %d, want 2", got)
	}
}

func TestNotTrimsTail(t *testing.T) {
	v := New(5)
	w := v.Not()
	if w.Norm() != 5 {
		t.Fatalf("Norm of ~0 over 5 bits = %d, want 5", w.Norm())
	}
	// Double complement is identity.
	if !equal(w.Not(), v) {
		t.Fatal("double complement not identity")
	}
}

func TestAndNotOr(t *testing.T) {
	a := FromBits(1, 1, 0, 0)
	b := FromBits(1, 0, 1, 0)
	if got := a.And(b.Not()); !equal(got, FromBits(0, 1, 0, 0)) {
		t.Fatalf("And Not = %v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(3).And(New(4))
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Get")
		}
	}()
	New(3).Get(3)
}

func TestCloneIndependent(t *testing.T) {
	v := FromBits(1, 0, 1)
	w := v.Clone()
	w.Clear(0)
	if !v.Get(0) {
		t.Fatal("Clone shares storage with original")
	}
}

func randomVector(r *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// Property: De Morgan — ~(a AND b) == ~a OR ~b.
func TestPropertyDeMorgan(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r, n), randomVector(r, n)
		nand := a.And(b).Not()
		for i := 0; i < n; i++ {
			if nand.Get(i) != (!a.Get(i) || !b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: |a| + |~a| == Len.
func TestPropertyNormComplement(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomVector(r, n)
		return a.Norm()+a.Not().Norm() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inclusion–exclusion — |a| + |b| == |a AND b| + |a OR b|,
// with |a OR b| = n − |~a AND ~b|.
func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a, b := randomVector(r, n), randomVector(r, n)
		return a.Norm()+b.Norm() == a.And(b).Norm()+n-a.Not().And(b.Not()).Norm()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCarveIndependent(t *testing.T) {
	widths := []int{0, 1, 63, 64, 65, 130}
	total := 0
	for _, n := range widths {
		total += Words(n)
	}
	buf := make([]uint64, total)
	rows := make([]Vector, len(widths))
	for i, n := range widths {
		rows[i], buf = Carve(buf, n)
	}
	if len(buf) != 0 {
		t.Fatalf("%d words left over", len(buf))
	}
	for i, n := range widths {
		if !equal(rows[i], New(n)) {
			t.Fatalf("row %d: carved %v, want an empty %d-bit vector", i, rows[i], n)
		}
		for j := 0; j < n; j++ {
			rows[i].Set(j)
		}
	}
	for i, n := range widths {
		if rows[i].Norm() != n {
			t.Fatalf("row %d: norm %d after setting %d bits: rows overlap", i, rows[i].Norm(), n)
		}
	}
}

func TestFullRowsIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		rows := FullRows(3, n)
		for r, v := range rows {
			if v.Len() != n || v.Norm() != n {
				t.Fatalf("n=%d row %d: len %d norm %d, want %d set bits", n, r, v.Len(), v.Norm(), n)
			}
		}
		if n == 0 {
			continue
		}
		rows[1].Clear(n - 1)
		if rows[0].Norm() != n || rows[2].Norm() != n || rows[1].Norm() != n-1 {
			t.Fatalf("n=%d: clearing a bit of row 1 reached another row", n)
		}
	}
}

// CarveFull sets every carved bit whatever the buffer held, keeps the
// bits past the width clear and leaves the rest of the buffer alone.
func TestCarveFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		buf := make([]uint64, Words(n)+1)
		for i := range buf {
			buf[i] = 0x5555
		}
		v, rest := CarveFull(buf, n)
		if v.Len() != n || v.Norm() != n {
			t.Fatalf("n=%d: len %d norm %d, want %d set bits", n, v.Len(), v.Norm(), n)
		}
		if !equal(v, FullRows(1, n)[0]) {
			t.Fatalf("n=%d: carved %v differs from a full row", n, v)
		}
		if len(rest) != 1 || rest[0] != 0x5555 {
			t.Fatalf("n=%d: rest %v, want the one untouched word", n, rest)
		}
	}
}
