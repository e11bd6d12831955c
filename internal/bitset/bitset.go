// Package bitset provides fixed-width dense bit vectors used to
// represent the adjacency, cutset-adjacency and critical-net vectors of
// the functional-replication gain model (Kužnar et al., DAC'94,
// Sections II–III). The three operations the paper performs on these
// vectors — complementation, logical AND and the norm |·| (population
// count) — are provided directly.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty
// vector of length 0; use New to create one of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FullRows returns rows vectors of n bits with every bit set, all
// carved from one backing array. Each row is an independent vector:
// writes to one never reach another.
func FullRows(rows, n int) []Vector {
	words := make([]uint64, rows*Words(n))
	out := make([]Vector, rows)
	for r := range out {
		out[r], words = CarveFull(words, n)
	}
	return out
}

// Words returns the number of 64-bit words backing an n-bit vector.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Carve returns an n-bit vector backed by the leading Words(n) words
// of buf, capacity-capped so it never reaches the rest, and the rest of
// buf. The carved words must be zero; callers carve many rows from one
// zeroed allocation.
func Carve(buf []uint64, n int) (Vector, []uint64) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	w := Words(n)
	return Vector{n: n, words: buf[:w:w]}, buf[w:]
}

// CarveFull is Carve for a vector with every bit set: it overwrites
// the carved words, so buf may hold anything.
func CarveFull(buf []uint64, n int) (Vector, []uint64) {
	v, rest := Carve(buf, n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v, rest
}

// FromBits builds a vector from 0/1 integers, convenient for writing
// the paper's column vectors such as A_X = [1 1 0]^T as FromBits(1,1,0).
func FromBits(bits ...int) Vector {
	v := New(len(bits))
	for i, x := range bits {
		switch x {
		case 0:
		case 1:
			v.Set(i)
		default:
			panic(fmt.Sprintf("bitset: FromBits element %d is %d, want 0 or 1", i, x))
		}
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Word returns bits [64w, 64w+64) of the vector, bit i at 1<<(i%64);
// bits at or past Len read zero. w ranges over [0, Words(Len)).
func (v Vector) Word(w int) uint64 { return v.words[w] }

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetBool assigns bit i.
func (v Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, v.n))
	}
}

func (v Vector) sameLen(w Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", v.n, w.n))
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Not returns the bitwise complement of v (the paper's Ā operation).
// Bits beyond Len are kept zero.
func (v Vector) Not() Vector {
	w := v.Clone()
	for i := range w.words {
		w.words[i] = ^w.words[i]
	}
	w.trim()
	return w
}

// And returns the bitwise AND of v and w (the paper's product vector).
func (v Vector) And(w Vector) Vector {
	v.sameLen(w)
	out := v.Clone()
	for i := range out.words {
		out.words[i] &= w.words[i]
	}
	return out
}

// Norm returns |v|, the number of set bits (the paper's norm).
func (v Vector) Norm() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ExclusiveNorm returns the number of bit positions set in exactly one
// of the vectors, which must share one length. It allocates nothing:
// per word, once collects the bits seen in some vector and twice the
// bits seen in two or more.
func ExclusiveNorm(vs []Vector) int {
	if len(vs) == 0 {
		return 0
	}
	for _, v := range vs[1:] {
		vs[0].sameLen(v)
	}
	c := 0
	for i := range vs[0].words {
		var once, twice uint64
		for _, v := range vs {
			w := v.words[i]
			twice |= once & w
			once |= w
		}
		c += bits.OnesCount64(once &^ twice)
	}
	return c
}

// trim clears any bits at positions >= n left over from complementation.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}

// String renders the vector as the paper writes them, e.g. "[1 1 0]^T".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < v.n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteString("]^T")
	return sb.String()
}
