package topology

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/textparse"
)

// mustBoard curries t so multi-value constructors can be passed
// directly: mustBoard(t)(Mesh(3, 3, 0)).
func mustBoard(t testing.TB) func(*Board, error) *Board {
	return func(b *Board, err error) *Board {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// dist is the shortest hop cost between two slots: the span of the
// two-slot set, whose spanning tree is the one shortest path.
func dist(b *Board, a, c int) int { return b.SpanCost(SlotSet(0).Add(a).Add(c)) }

// diameter is the largest pairwise slot distance.
func diameter(b *Board) int {
	d := 0
	for a := 0; a < b.Slots; a++ {
		for c := a + 1; c < b.Slots; c++ {
			d = max(d, dist(b, a, c))
		}
	}
	return d
}

func TestCrossbarDistances(t *testing.T) {
	b := mustBoard(t)(Crossbar(4, 0))
	for a := 0; a < 4; a++ {
		for c := 0; c < 4; c++ {
			want := 1
			if a == c {
				want = 0
			}
			if got := dist(b, a, c); got != want {
				t.Fatalf("dist(%d,%d) = %d, want %d", a, c, got, want)
			}
		}
	}
	if diameter(b) != 1 {
		t.Fatalf("diameter %d, want 1", diameter(b))
	}
	// MST over k slots of a crossbar costs k−1: flat-cut regime.
	var s SlotSet
	for k := 0; k < 4; k++ {
		s = s.Add(k)
		if got, want := b.SpanCost(s), k; got != want {
			t.Fatalf("crossbar span of %d slots = %d, want %d", k+1, got, want)
		}
	}
}

func TestLinearAndMeshDistances(t *testing.T) {
	lin := mustBoard(t)(Linear(5, 0))
	if got := dist(lin, 0, 4); got != 4 {
		t.Fatalf("linear dist(0,4) = %d, want 4", got)
	}
	m := mustBoard(t)(Mesh(3, 3, 0))
	if got := dist(m, 0, 8); got != 4 {
		t.Fatalf("mesh dist(0,8) = %d, want 4 (Manhattan)", got)
	}
	if diameter(m) != 4 {
		t.Fatalf("mesh diameter %d, want 4", diameter(m))
	}
	// Corner-to-corner path is a real board walk: consecutive hops are
	// links, endpoints correct.
	p := m.Path(0, 8, nil)
	if p[0] != 0 || p[len(p)-1] != 8 || len(p) != 5 {
		t.Fatalf("path 0→8 = %v", p)
	}
	for i := 1; i < len(p); i++ {
		if m.linkAt[p[i-1]*m.Slots+p[i]] < 0 {
			t.Fatalf("path 0→8 jumps a non-link %d–%d", p[i-1], p[i])
		}
	}
}

func TestSpanCostSteiner(t *testing.T) {
	m := mustBoard(t)(Mesh(3, 3, 0))
	// Corners {0, 2, 6}: MST joins 2 and 6 to 0 at distance 2 each.
	set := SlotSet(0).Add(0).Add(2).Add(6)
	if got := m.SpanCost(set); got != 4 {
		t.Fatalf("span{0,2,6} = %d, want 4", got)
	}
	// Edge midpoints {1, 3, 5} are pairwise distance 2 (MST = 4); the
	// center slot 4 is a Steiner point at distance 1 from each, so
	// adding it lowers the span cost (MST drops to 3).
	mid := SlotSet(0).Add(1).Add(3).Add(5)
	if got := m.SpanCost(mid); got != 4 {
		t.Fatalf("span{1,3,5} = %d, want 4", got)
	}
	if got := m.SpanCost(mid.Add(4)); got != 3 {
		t.Fatalf("span{1,3,4,5} = %d, want 3", got)
	}
	// An empty or single-slot span is free.
	if m.SpanCost(0) != 0 || m.SpanCost(SlotSet(0).Add(5)) != 0 {
		t.Fatal("empty or singleton span should cost 0")
	}
}

func TestRouteSpanCoversTreeWithinCapacity(t *testing.T) {
	m := mustBoard(t)(Mesh(2, 3, 0))
	set := SlotSet(0).Add(0).Add(2).Add(5)
	links := m.RouteSpan(set)
	if len(links) == 0 {
		t.Fatal("no links routed")
	}
	// Routed links must connect the set: union-find over endpoints.
	parent := make([]int, m.Slots)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	total := 0
	for _, li := range links {
		l := m.Links[li]
		parent[find(l.A)] = find(l.B)
		total += l.Cost
	}
	slots := set.Slots(nil)
	for _, s := range slots[1:] {
		if find(s) != find(slots[0]) {
			t.Fatalf("routed links %v do not connect %v", links, slots)
		}
	}
	if want := m.SpanCost(set); total < want {
		t.Fatalf("routed cost %d below span cost %d", total, want)
	}
}

func TestRouteSpanDeterministic(t *testing.T) {
	m := mustBoard(t)(Mesh(3, 3, 0))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		set := SlotSet(r.Uint64()) & (1<<9 - 1)
		a := m.RouteSpan(set)
		b := m.RouteSpan(set)
		if len(a) != len(b) {
			t.Fatalf("set %b: nondeterministic route", set)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %b: nondeterministic route", set)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		slots int
		links int
		cap   int
	}{
		{"crossbar:4", 4, 6, 64},
		{"linear:5:8", 5, 4, 8},
		{"mesh:2x3:16", 6, 7, 16},
	} {
		b := mustBoard(t)(ParseSpec(tc.spec))
		if b.Slots != tc.slots || len(b.Links) != tc.links {
			t.Fatalf("%s: %d slots / %d links, want %d/%d", tc.spec, b.Slots, len(b.Links), tc.slots, tc.links)
		}
		if b.Links[0].Capacity != tc.cap {
			t.Fatalf("%s: capacity %d, want %d", tc.spec, b.Links[0].Capacity, tc.cap)
		}
	}
	for _, bad := range []string{"", "mesh", "mesh:3", "mesh:0x2", "torus:3x3", "linear:x", "linear:4:0", "crossbar:4:1:2",
		"crossbar:65", "linear:65", "mesh:8x9", "mesh:1x65",
		// Too many slots is rejected before any link is built: these
		// would take gigabytes of link lists, or overflow rows*cols.
		"crossbar:3000", "crossbar:100000", "linear:1000000000", "mesh:2000x2000",
		"mesh:4294967296x4294967296", "mesh:3037000500x3037000500"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSpec(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("spec %q: %d bytes allocated before the rejection", bad, n)
		}
	}
}

func TestBoardFileRoundTrip(t *testing.T) {
	b := mustBoard(t)(Mesh(2, 2, 12))
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Name != b.Name || rb.Slots != b.Slots || len(rb.Links) != len(b.Links) {
		t.Fatalf("round trip mismatch: %+v vs %+v", rb, b)
	}
	for i := range b.Links {
		if rb.Links[i] != b.Links[i] {
			t.Fatalf("link %d: %+v vs %+v", i, rb.Links[i], b.Links[i])
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []string{
		"slots 2\nlink 0 0",            // self loop
		"slots 2\nlink 0 5",            // out of range
		"slots 0",                      // no slots
		"slots 65",                     // over MaxSlots
		"slots 3\nlink 0 1",            // disconnected (slot 2 unreachable)
		"slots 2\nlink 0 1 cap 0",      // zero capacity
		"slots 2\nlink 0 1 cost 0",     // zero cost
		"slots 2\nlink 0 1\nlink 1 0",  // duplicate
		"wat 3",                        // unknown directive
		"slots 2\nlink 0 1 cap",        // attribute without a value
		"slots 2\nlink 0 1 cap 5 cost", // trailing attribute without a value
	} {
		_, err := Parse(strings.NewReader(tc))
		if err == nil {
			t.Fatalf("accepted:\n%s", tc)
		}
		var pe *textparse.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: want *textparse.ParseError, got %T: %v", tc, err, err)
		}
	}
}

// A link attribute without a value is reported on its line, at the
// attribute's column.
func TestParseAttributeWithoutValue(t *testing.T) {
	for _, tc := range []struct {
		src string
		col int
	}{
		{"slots 2\nlink 0 1 cap\n", 10},
		{"slots 2\n  link 0 1 cap 5 cost\n", 18},
	} {
		_, err := Parse(strings.NewReader(tc.src))
		var pe *textparse.ParseError
		if !errors.As(err, &pe) || pe.Line != 2 || pe.Col != tc.col {
			t.Fatalf("%q: got %v, want a parse error at line 2, col %d", tc.src, err, tc.col)
		}
	}
}

func TestFromArgSpecAndFile(t *testing.T) {
	if b := mustBoard(t)(FromArg("mesh:2x2")); b.Slots != 4 {
		t.Fatal("spec arg not resolved")
	}
	path := t.TempDir() + "/b.board"
	b := mustBoard(t)(Linear(3, 0))
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fb := mustBoard(t)(FromArg(path))
	if fb.Slots != 3 {
		t.Fatal("file arg not resolved")
	}
	if _, err := FromArg(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAsymmetricCostsAndBridgeCapacity(t *testing.T) {
	// Two clusters bridged by an expensive narrow link.
	b := mustBoard(t)(Parse(strings.NewReader(`
board bridge
slots 4
link 0 1 cap 32 cost 1
link 2 3 cap 32 cost 1
link 1 2 cap 2 cost 3
`)))
	if got := dist(b, 0, 3); got != 5 {
		t.Fatalf("dist(0,3) = %d, want 5", got)
	}
	set := SlotSet(0).Add(0).Add(3)
	links := b.RouteSpan(set)
	if len(links) != 3 {
		t.Fatalf("route 0–3 uses %d links, want 3", len(links))
	}
}

// FuzzParseBoard: whatever Parse rejects, syntax or a failed Finalize
// check, must be a *textparse.ParseError; whatever it accepts must
// survive a write/read round trip.
func FuzzParseBoard(f *testing.F) {
	for _, b := range []*Board{
		mustBoard(f)(Mesh(2, 4, 1<<20)),
		mustBoard(f)(Crossbar(3, 0)),
		mustBoard(f)(New("asym", 3, []Link{{A: 0, B: 1, Capacity: 4, Cost: 2}, {A: 1, B: 2, Capacity: 9, Cost: 1}})),
	} {
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("board b\nslots 4\nlink 0 1 cap x\n")
	f.Add("board b\nslots 2\nlink 0 1 cap\n")
	f.Add("board b\nslots 2\nlink 0 1 cap 5 cost\n")
	f.Add("board b\nslots 3\nlink 0 1\n")
	f.Add("# " + strings.Repeat("x", 70000) + "\nboard b\nslots 4\nlink 0 1\nlink 1 2\nlink 2 3\n")
	f.Fuzz(func(t *testing.T, src string) {
		b, err := Parse(strings.NewReader(src))
		if err != nil {
			var pe *textparse.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped parse failure: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.Name != b.Name || back.Slots != b.Slots || !slices.Equal(back.Links, b.Links) {
			t.Fatalf("round trip changed the board: %+v vs %+v", back, b)
		}
	})
}
