// Package topology models the multi-FPGA board the partition is
// placed on: a graph of device slots joined by finite-capacity links
// with integer hop costs. The flat terminal-cut objective of the
// paper treats every cut net as equally expensive; on a real board a
// net spanning two adjacent devices costs one hop while a net
// spanning opposite corners of a mesh crosses several, and each link
// only carries so many signals. The k-way engine partitions first and
// places the finished parts on slots afterwards; the board model
// supplies what that placement and its check need:
//
//   - all-pairs shortest hop distances and deterministic routes,
//   - SpanCost, the minimum-spanning-tree (Steiner approximation)
//     hop cost of connecting a set of slots, which scores a placement,
//   - per-link net-load routing for the verifier's capacity check.
//
// Boards come from builders (Crossbar, Linear, Mesh), from a compact
// spec string ("mesh:3x3", "crossbar:4:16"), or from a small text
// file format (see Parse/Write) wired into the kpart/kpartd -board
// options.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"

	"fpgapart/internal/textparse"
)

// MaxSlots bounds the slot count so slot sets fit one machine word.
const MaxSlots = 64

// DefaultCapacity is the per-link net capacity builders use when the
// caller passes cap <= 0.
const DefaultCapacity = 64

// Link is one inter-slot connection. Links are undirected; A < B.
type Link struct {
	A, B     int
	Capacity int // max distinct nets routable over the link
	Cost     int // hop cost of crossing the link (>= 1)
}

// Board is a device-slot graph. Zero value is unusable; construct via
// a builder, ParseSpec, Parse or New followed by Finalize.
type Board struct {
	Name  string
	Slots int
	Links []Link

	dist   []int32 // Slots*Slots all-pairs shortest hop cost
	next   []int32 // Slots*Slots first intermediate hop on a shortest path
	linkAt []int32 // Slots*Slots direct link index, -1 when absent
}

// New assembles a board and finalizes it.
func New(name string, slots int, links []Link) (*Board, error) {
	b := &Board{Name: name, Slots: slots, Links: links}
	if err := b.Finalize(); err != nil {
		return nil, err
	}
	return b, nil
}

// Finalize validates the board and computes the derived all-pairs
// distance, next-hop and link-lookup tables. It must be called after
// any mutation of Slots/Links; builders and parsers call it.
func (b *Board) Finalize() error {
	if b.Slots < 1 || b.Slots > MaxSlots {
		return fmt.Errorf("topology: %d slots, want 1..%d", b.Slots, MaxSlots)
	}
	n := b.Slots
	b.linkAt = make([]int32, n*n)
	for i := range b.linkAt {
		b.linkAt[i] = -1
	}
	for i := range b.Links {
		l := &b.Links[i]
		if l.A > l.B {
			l.A, l.B = l.B, l.A
		}
		if l.A < 0 || l.B >= n || l.A == l.B {
			return fmt.Errorf("topology: link %d–%d outside slots 0..%d", l.A, l.B, n-1)
		}
		if l.Capacity < 1 {
			return fmt.Errorf("topology: link %d–%d capacity %d, want >= 1", l.A, l.B, l.Capacity)
		}
		if l.Cost < 1 {
			return fmt.Errorf("topology: link %d–%d cost %d, want >= 1", l.A, l.B, l.Cost)
		}
		if b.linkAt[l.A*n+l.B] >= 0 {
			return fmt.Errorf("topology: duplicate link %d–%d", l.A, l.B)
		}
		b.linkAt[l.A*n+l.B] = int32(i)
		b.linkAt[l.B*n+l.A] = int32(i)
	}
	// Floyd–Warshall with next-hop recording. Updates only on strictly
	// shorter paths, so routes are deterministic for a given link order.
	const inf = int32(1) << 29
	b.dist = make([]int32, n*n)
	b.next = make([]int32, n*n)
	for i := range b.dist {
		b.dist[i] = inf
		b.next[i] = -1
	}
	for s := 0; s < n; s++ {
		b.dist[s*n+s] = 0
		b.next[s*n+s] = int32(s)
	}
	for _, l := range b.Links {
		c := int32(l.Cost)
		if c < b.dist[l.A*n+l.B] {
			b.dist[l.A*n+l.B] = c
			b.dist[l.B*n+l.A] = c
			b.next[l.A*n+l.B] = int32(l.B)
			b.next[l.B*n+l.A] = int32(l.A)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := b.dist[i*n+k]
			if dik >= inf {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + b.dist[k*n+j]; d < b.dist[i*n+j] {
					b.dist[i*n+j] = d
					b.next[i*n+j] = b.next[i*n+k]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if b.dist[i*n+j] >= inf {
				return fmt.Errorf("topology: board %q is disconnected (no path %d–%d)", b.Name, i, j)
			}
		}
	}
	return nil
}

// Path appends the slots of a shortest route from a to c (both
// endpoints included) to buf and returns it.
func (b *Board) Path(a, c int, buf []int) []int {
	buf = append(buf, a)
	for a != c {
		a = int(b.next[a*b.Slots+c])
		buf = append(buf, a)
	}
	return buf
}

// SlotSet is a set of slot indices packed into one word.
type SlotSet uint64

// Add returns the set with slot i included.
func (s SlotSet) Add(i int) SlotSet { return s | 1<<uint(i) }

// Count returns the number of slots in the set.
func (s SlotSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Slots appends the member slots in ascending order to buf.
func (s SlotSet) Slots(buf []int) []int {
	for v := uint64(s); v != 0; v &= v - 1 {
		buf = append(buf, bits.TrailingZeros64(v))
	}
	return buf
}

// SpanCost returns the hop cost of connecting every slot in the set:
// the minimum spanning tree of the set under shortest-path distances,
// the classic 2-approximation of the Steiner tree on the board graph.
// Empty and singleton sets cost 0. Deterministic: Prim from the
// lowest slot with lowest-index tie-breaks.
func (b *Board) SpanCost(set SlotSet) int {
	if set.Count() <= 1 {
		return 0
	}
	cost, _ := b.spanTree(set, nil)
	return cost
}

// spanTree runs Prim over the set's distance closure. When parents is
// non-nil it is filled with each joined slot's tree parent (the slot
// it attaches to), for route expansion; entry for the root is -1.
func (b *Board) spanTree(set SlotSet, parents map[int]int) (int, int) {
	n := b.Slots
	root := bits.TrailingZeros64(uint64(set))
	var inTree SlotSet
	inTree = inTree.Add(root)
	if parents != nil {
		parents[root] = -1
	}
	// best[s] = cheapest distance from s to the tree, via from[s].
	var best, from [MaxSlots]int32
	for s := 0; s < n; s++ {
		best[s] = b.dist[s*n+root]
		from[s] = int32(root)
	}
	total := 0
	for inTree != set {
		pick, pickD := -1, int32(0)
		for v := uint64(set &^ inTree); v != 0; v &= v - 1 {
			s := bits.TrailingZeros64(v)
			if pick < 0 || best[s] < pickD {
				pick, pickD = s, best[s]
			}
		}
		inTree = inTree.Add(pick)
		total += int(pickD)
		if parents != nil {
			parents[pick] = int(from[pick])
		}
		for s := 0; s < n; s++ {
			if d := b.dist[s*n+pick]; d < best[s] {
				best[s] = d
				from[s] = int32(pick)
			}
		}
	}
	return total, root
}

// RouteSpan expands the set's spanning tree into board links: every
// tree edge follows its deterministic shortest path, and each link is
// reported once (as an index into Links) even when several tree edges
// share it. Results are in ascending link order.
func (b *Board) RouteSpan(set SlotSet) []int {
	if set.Count() <= 1 {
		return nil
	}
	parents := make(map[int]int, set.Count())
	b.spanTree(set, parents)
	used := make(map[int]struct{})
	var path []int
	for _, s := range set.Slots(nil) {
		p := parents[s]
		if p < 0 {
			continue
		}
		path = b.Path(s, p, path[:0])
		for i := 1; i < len(path); i++ {
			li := int(b.linkAt[path[i-1]*b.Slots+path[i]])
			used[li] = struct{}{}
		}
	}
	out := make([]int, 0, len(used))
	for li := range used {
		out = append(out, li)
	}
	sort.Ints(out)
	return out
}

// --- builders -------------------------------------------------------

func capOrDefault(capacity int) int {
	if capacity <= 0 {
		return DefaultCapacity
	}
	return capacity
}

// checkSlots is Finalize's slot-count check, which the builders run
// before they allocate links: a crossbar's link list grows with the
// square of the slot count.
func checkSlots(slots int) error {
	if slots < 1 || slots > MaxSlots {
		return fmt.Errorf("topology: %d slots, want 1..%d", slots, MaxSlots)
	}
	return nil
}

// Crossbar builds a fully connected board: every slot pair joined by a
// unit-cost link. Span costs degenerate to |slots|−1, the flat-cut
// regime.
func Crossbar(slots, capacity int) (*Board, error) {
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
	capacity = capOrDefault(capacity)
	var links []Link
	for a := 0; a < slots; a++ {
		for c := a + 1; c < slots; c++ {
			links = append(links, Link{A: a, B: c, Capacity: capacity, Cost: 1})
		}
	}
	return New(fmt.Sprintf("crossbar%d", slots), slots, links)
}

// Linear builds a chain 0–1–…–(slots−1) of unit-cost links.
func Linear(slots, capacity int) (*Board, error) {
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
	capacity = capOrDefault(capacity)
	var links []Link
	for a := 0; a+1 < slots; a++ {
		links = append(links, Link{A: a, B: a + 1, Capacity: capacity, Cost: 1})
	}
	return New(fmt.Sprintf("linear%d", slots), slots, links)
}

// Mesh builds a rows×cols grid with unit-cost links between 4-neighbor
// slots, slot index r*cols+c.
func Mesh(rows, cols, capacity int) (*Board, error) {
	// Bounding each side first keeps rows*cols from overflowing.
	if rows < 1 || cols < 1 || rows > MaxSlots || cols > MaxSlots {
		return nil, fmt.Errorf("topology: mesh %dx%d, want 1..%d slots", rows, cols, MaxSlots)
	}
	if err := checkSlots(rows * cols); err != nil {
		return nil, err
	}
	capacity = capOrDefault(capacity)
	var links []Link
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				links = append(links, Link{A: at(r, c), B: at(r, c+1), Capacity: capacity, Cost: 1})
			}
			if r+1 < rows {
				links = append(links, Link{A: at(r, c), B: at(r+1, c), Capacity: capacity, Cost: 1})
			}
		}
	}
	return New(fmt.Sprintf("mesh%dx%d", rows, cols), rows*cols, links)
}

// --- spec strings and the board file format -------------------------

// ParseSpec builds a board from a compact spec string:
//
//	crossbar:N[:CAP]   full crossbar over N slots
//	linear:N[:CAP]     chain of N slots
//	mesh:RxC[:CAP]     R×C grid
//
// CAP is the per-link net capacity (default 64).
func ParseSpec(spec string) (*Board, error) {
	fields := strings.Split(spec, ":")
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("topology: spec %q, want kind:dims[:capacity]", spec)
	}
	capacity := 0
	if len(fields) == 3 {
		v, err := strconv.Atoi(fields[2])
		if err != nil || v < 1 {
			return nil, fmt.Errorf("topology: spec %q: bad capacity %q", spec, fields[2])
		}
		capacity = v
	}
	dims := fields[1]
	switch fields[0] {
	case "crossbar", "linear":
		n, err := strconv.Atoi(dims)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("topology: spec %q: bad slot count %q", spec, dims)
		}
		if fields[0] == "crossbar" {
			return Crossbar(n, capacity)
		}
		return Linear(n, capacity)
	case "mesh":
		r, c, ok := strings.Cut(dims, "x")
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if !ok || err1 != nil || err2 != nil || rows < 1 || cols < 1 {
			return nil, fmt.Errorf("topology: spec %q: bad mesh dims %q, want RxC", spec, dims)
		}
		return Mesh(rows, cols, capacity)
	}
	return nil, fmt.Errorf("topology: spec %q: unknown kind %q (crossbar, linear, mesh)", spec, fields[0])
}

// specKinds gates FromArg's spec-vs-file dispatch.
var specKinds = []string{"crossbar:", "linear:", "mesh:"}

// FromArg resolves a -board flag value: a recognized spec string is
// built directly, anything else is read as a board-description file.
func FromArg(arg string) (*Board, error) {
	for _, k := range specKinds {
		if strings.HasPrefix(arg, k) {
			return ParseSpec(arg)
		}
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// maxLineBytes caps one board-file line. Board files are tiny; the
// cap only bounds what a hostile file can make the reader buffer.
const maxLineBytes = 1 << 20

// Parse reads the board-description format:
//
//	# comment
//	board <name>
//	slots <n>
//	link <a> <b> [cap <c>] [cost <h>]
//
// Unspecified cap defaults to 64, cost to 1. Order of link lines is
// preserved (it fixes routing tie-breaks). Every error is a
// *textparse.ParseError: syntax errors and over-long lines carry their
// line, and a board that parses but fails Finalize's checks wraps that
// check's error (textparse.Invalid), rendering as it alone.
func Parse(r io.Reader) (*Board, error) {
	b := &Board{}
	lr := textparse.NewReader(r, "topology", maxLineBytes)
	for lr.Scan() {
		line := strings.TrimSpace(lr.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "board":
			if len(f) != 2 {
				return nil, lr.Errorf(0, "want 'board <name>'")
			}
			b.Name = f[1]
		case "slots":
			if len(f) != 2 {
				return nil, lr.Errorf(0, "want 'slots <n>'")
			}
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, lr.Errorf(0, "bad slot count %q", f[1])
			}
			b.Slots = n
		case "link":
			if len(f) < 3 {
				return nil, lr.Errorf(0, "want 'link <a> <b> [cap <c>] [cost <h>]'")
			}
			a, err1 := strconv.Atoi(f[1])
			c, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, lr.Errorf(0, "bad link endpoints")
			}
			l := Link{A: a, B: c, Capacity: DefaultCapacity, Cost: 1}
			for i := 3; i < len(f); i += 2 {
				if i+1 == len(f) {
					return nil, lr.Errorf(textparse.FieldCol(lr.Text(), i), "link attribute %q has no value", f[i])
				}
				v, err := strconv.Atoi(f[i+1])
				if err != nil {
					return nil, lr.Errorf(0, "bad %s value %q", f[i], f[i+1])
				}
				switch f[i] {
				case "cap":
					l.Capacity = v
				case "cost":
					l.Cost = v
				default:
					return nil, lr.Errorf(0, "unknown link attribute %q", f[i])
				}
			}
			b.Links = append(b.Links, l)
		default:
			return nil, lr.Errorf(0, "unknown directive %q", f[0])
		}
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	if err := b.Finalize(); err != nil {
		return nil, textparse.Invalid("topology", err)
	}
	return b, nil
}

// Write emits the board in the format Parse reads back.
func (b *Board) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if b.Name != "" {
		fmt.Fprintf(bw, "board %s\n", b.Name)
	}
	fmt.Fprintf(bw, "slots %d\n", b.Slots)
	for _, l := range b.Links {
		fmt.Fprintf(bw, "link %d %d cap %d cost %d\n", l.A, l.B, l.Capacity, l.Cost)
	}
	return bw.Flush()
}
