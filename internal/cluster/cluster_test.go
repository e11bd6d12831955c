package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

func testGraph(t *testing.T, cells int, seed int64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "cl", Cells: cells, PrimaryIn: 12, PrimaryOut: 8,
		Clustering: 0.5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildReducesAndCovers(t *testing.T) {
	g := testGraph(t, 300, 1)
	cl, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Graph.NumCells() >= g.NumCells() {
		t.Fatalf("no reduction: %d -> %d", g.NumCells(), cl.Graph.NumCells())
	}
	if err := cl.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Membership covers every original cell exactly once.
	seen := make(map[hypergraph.CellID]bool)
	for _, ms := range cl.Members {
		for _, m := range ms {
			if seen[m] {
				t.Fatalf("cell %d in two clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != g.NumCells() {
		t.Fatalf("membership covers %d of %d", len(seen), g.NumCells())
	}
	// Area is conserved.
	if cl.Graph.TotalArea() != g.TotalArea() {
		t.Fatalf("area %d != %d", cl.Graph.TotalArea(), g.TotalArea())
	}
	if cl.Graph.NumDFF() != g.NumDFF() {
		t.Fatalf("dffs %d != %d", cl.Graph.NumDFF(), g.NumDFF())
	}
}

// Four chained levels, each contracted into its own slot of one
// Coarsener, all stay under the area cap.
func TestBuildRespectsAreaCap(t *testing.T) {
	g := testGraph(t, 300, 2)
	var c Coarsener
	for level := 0; level < 4; level++ {
		cl, err := c.Build(level, g, Options{MaxClusterArea: 4, Seed: 2 + int64(level)})
		if err != nil {
			t.Fatal(err)
		}
		for ci := range cl.Graph.Cells {
			if a := cl.Graph.Cells[ci].Area; a > 4 {
				t.Fatalf("level %d cluster %d area %d > cap", level, ci, a)
			}
		}
		g = cl.Graph
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := testGraph(t, 200, 3)
	a, err := Build(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumCells() != b.Graph.NumCells() || a.Graph.NumNets() != b.Graph.NumNets() {
		t.Fatal("nondeterministic clustering")
	}
}

func TestProject(t *testing.T) {
	g := testGraph(t, 150, 4)
	cl, err := Build(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	coarse := make([]replication.Block, cl.Graph.NumCells())
	for i := range coarse {
		coarse[i] = replication.Block(i % 2)
	}
	fine, err := cl.Project(coarse, g.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	// Every member landed on its cluster's block.
	for ci, ms := range cl.Members {
		for _, m := range ms {
			if fine[m] != coarse[ci] {
				t.Fatalf("cell %d projected to %d, cluster %d on %d", m, fine[m], ci, coarse[ci])
			}
		}
	}
	if _, err := cl.Project(coarse[:1], g.NumCells()); err == nil {
		t.Fatal("short coarse assignment should fail")
	}
}

// Clustering must preserve the cut structure: the projection of any
// coarse bipartition has the same cut as the coarse bipartition
// itself (internal nets of a cluster can never be cut).
func TestCutPreservation(t *testing.T) {
	g := testGraph(t, 200, 6)
	cl, err := Build(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cl.sortCells()
	coarse := make([]replication.Block, cl.Graph.NumCells())
	for i := range coarse {
		coarse[i] = replication.Block((i / 3) % 2)
	}
	stCoarse, err := replication.NewState(cl.Graph, coarse)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := cl.Project(coarse, g.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	stFine, err := replication.NewState(g, fine)
	if err != nil {
		t.Fatal(err)
	}
	if stCoarse.CutSize() != stFine.CutSize() {
		t.Fatalf("coarse cut %d != projected fine cut %d", stCoarse.CutSize(), stFine.CutSize())
	}
}

// refMatchRound is the map-based heavy-edge matching that matchRound
// replaced, kept as the differential reference: affinities live in a
// map keyed by neighbor, and the partner is the highest weight with
// ties going to the lowest cell id.
func refMatchRound(g *hypergraph.Graph, opts Options, r *rand.Rand) []int {
	n := g.NumCells()
	match := make([]int, n)
	for i := range match {
		match[i] = i
	}
	order := r.Perm(n)
	taken := make([]bool, n)
	weights := make(map[hypergraph.CellID]float64, 16)
	for _, ui := range order {
		if taken[ui] {
			continue
		}
		u := hypergraph.CellID(ui)
		for k := range weights {
			delete(weights, k)
		}
		for _, net := range g.CellNets(u) {
			conns := g.Nets[net].Conns
			if len(conns) > opts.MaxFanout || len(conns) < 2 {
				continue
			}
			w := 1.0 / float64(len(conns)-1)
			for _, cn := range conns {
				if cn.Cell != u && !taken[cn.Cell] {
					weights[cn.Cell] += w
				}
			}
		}
		best := hypergraph.CellID(-1)
		bestW := 0.0
		for v, w := range weights {
			if g.Cells[u].Area+g.Cells[v].Area > opts.MaxClusterArea {
				continue
			}
			if opts.MaxClusterOutputs > 0 &&
				len(g.Cells[u].Outputs)+len(g.Cells[v].Outputs) > opts.MaxClusterOutputs {
				continue
			}
			if w > bestW || (w == bestW && best >= 0 && v < best) {
				best, bestW = v, w
			}
		}
		if best >= 0 {
			taken[ui], taken[best] = true, true
			match[ui] = int(best)
			match[best] = ui
		}
	}
	return match
}

// refContract is the map-based contraction that contract replaced, kept
// as the differential reference: a set of clusters per net, two
// dedup sets per cluster and one formatted name per coarse cell.
func refContract(g *hypergraph.Graph, match []int) (*hypergraph.Graph, [][]hypergraph.CellID, error) {
	n := g.NumCells()
	clusterOf := make([]int, n)
	var membersList [][]hypergraph.CellID
	for i := 0; i < n; i++ {
		if match[i] >= i {
			id := len(membersList)
			clusterOf[i] = id
			ms := []hypergraph.CellID{hypergraph.CellID(i)}
			if match[i] != i {
				clusterOf[match[i]] = id
				ms = append(ms, hypergraph.CellID(match[i]))
			}
			membersList = append(membersList, ms)
		}
	}

	b := hypergraph.NewBuilder(g.Name + "~")
	type netInfo struct {
		clusters map[int]bool
		driver   int
	}
	infos := make([]netInfo, g.NumNets())
	for ni := range g.Nets {
		infos[ni] = netInfo{clusters: map[int]bool{}, driver: -1}
	}
	for ci := range g.Cells {
		cl := clusterOf[ci]
		c := &g.Cells[ci]
		for _, net := range c.Outputs {
			infos[net].clusters[cl] = true
			infos[net].driver = cl
		}
		for _, net := range c.Inputs {
			if net != hypergraph.NilNet {
				infos[net].clusters[cl] = true
			}
		}
	}
	netID := make([]hypergraph.NetID, g.NumNets())
	for ni := range netID {
		netID[ni] = hypergraph.NilNet
	}
	for ni := range g.Nets {
		info := &infos[ni]
		ext := g.Nets[ni].Ext
		if len(info.clusters) < 2 && ext == hypergraph.Internal {
			continue
		}
		switch ext {
		case hypergraph.ExtIn:
			netID[ni] = b.InputNet(g.Nets[ni].Name)
		case hypergraph.ExtOut:
			netID[ni] = b.OutputNet(g.Nets[ni].Name)
		default:
			netID[ni] = b.Net(g.Nets[ni].Name)
		}
	}
	for cl, ms := range membersList {
		var inputs, outputs []hypergraph.NetID
		seenIn := map[hypergraph.NetID]bool{}
		seenOut := map[hypergraph.NetID]bool{}
		area, dffs := 0, 0
		for _, m := range ms {
			c := &g.Cells[m]
			area += c.Area
			dffs += c.DFFs
			for _, net := range c.Outputs {
				if id := netID[net]; id != hypergraph.NilNet && !seenOut[id] {
					seenOut[id] = true
					outputs = append(outputs, id)
				}
			}
			for _, net := range c.Inputs {
				if net == hypergraph.NilNet {
					continue
				}
				id := netID[net]
				if id == hypergraph.NilNet || seenIn[id] || infos[net].driver == cl {
					continue
				}
				seenIn[id] = true
				inputs = append(inputs, id)
			}
		}
		if len(outputs) == 0 {
			return nil, nil, fmt.Errorf("cluster: cluster %d of %q has no surviving outputs", cl, g.Name)
		}
		b.AddCell(hypergraph.CellSpec{
			Name:    fmt.Sprintf("k%d", cl),
			Inputs:  inputs,
			Outputs: outputs,
			Area:    area,
			DFFs:    dffs,
		})
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return coarse, membersList, nil
}

func render(t *testing.T, g *hypergraph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := hypergraph.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCoarseningMatchesReference pins the dense-array matchRound and
// contract to the map-based reference: identical match vectors, an
// identical rendering of the coarse graph and identical member lists,
// level after level, across seeds, area caps and output caps. One
// Coarsener serves every case, so each contraction also runs on
// scratch and slots left dirty by the previous ones.
func TestCoarseningMatchesReference(t *testing.T) {
	var c Coarsener
	for _, gs := range []int64{1, 2} {
		base, err := bench.Generate(bench.Params{
			Name: "diff", Cells: 600, PrimaryIn: 24, PrimaryOut: 16,
			DFFs: 200, Clustering: 0.6, Seed: gs,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			area, outs int
			seed       int64
		}{{2, 0, 1}, {4, 24, 7}, {8, 6, 11}, {64, 24, 13}, {64, 3, 17}} {
			opts := Options{MaxClusterArea: tc.area, MaxClusterOutputs: tc.outs}.withDefaults()
			g := base
			for level := 0; level < 4; level++ {
				seed := tc.seed + int64(level)
				match := c.matchRound(g, opts, rand.New(rand.NewSource(seed)))
				want := refMatchRound(g, opts, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(match, want) {
					t.Fatalf("circuit %d %+v level %d: match vector differs from the reference", gs, tc, level)
				}
				cl, err := c.contract(level, g, match)
				refCoarse, refMembers, refErr := refContract(g, want)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("circuit %d %+v level %d: error %v, reference %v", gs, tc, level, err, refErr)
				}
				if err != nil {
					break
				}
				coarse, members := cl.Graph, cl.Members
				if got, want := render(t, coarse), render(t, refCoarse); got != want {
					t.Fatalf("circuit %d %+v level %d: coarse graph differs from the reference\n--- got ---\n%.1500s\n--- want ---\n%.1500s", gs, tc, level, got, want)
				}
				if !reflect.DeepEqual(members, refMembers) {
					t.Fatalf("circuit %d %+v level %d: member lists differ from the reference", gs, tc, level)
				}
				if coarse.NumCells() == g.NumCells() {
					break
				}
				g = coarse
			}
		}
	}
}

// A Build into a slot overwrites the slot's arrays but returns new
// Graph and Clustering headers, so a cache keyed on graph identity
// never takes the new contraction for the one it replaced.
func TestBuildReturnsNewHeaders(t *testing.T) {
	g := testGraph(t, 300, 8)
	var c Coarsener
	a, err := c.Build(0, g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build(0, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Graph == b.Graph {
		t.Fatal("a second Build into slot 0 returned the first one's header")
	}
	if &a.Graph.Cells[0] != &b.Graph.Cells[0] {
		t.Fatal("a second Build into slot 0 did not reuse the slot's cell array")
	}
	if err := b.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocs bounds the allocations of a warm contraction on the
// benchmark's 8000-cell V-cycle circuit. With every slot and scratch
// buffer already grown, a level costs a constant number of allocations
// besides Validate's own tables (whose cell-name map grows with the
// cell count): the graph and clustering headers and the graph name. A
// per-cell name, pin list or dependency row, or a per-net map entry,
// puts it far above the bound.
func TestBuildAllocs(t *testing.T) {
	g, err := bench.Generate(bench.Params{Name: "large8000", Cells: 8000, PrimaryIn: 120, PrimaryOut: 200,
		DFFs: 4000, Clustering: 0.7, DistantPackFrac: 0.07, Seed: 38584})
	if err != nil {
		t.Fatal(err)
	}
	const levels = 4
	var c Coarsener
	var built []*hypergraph.Graph
	build := func() {
		built = built[:0]
		cur := g
		for level := 0; level < levels; level++ {
			cl, err := c.Build(level, cur, Options{MaxClusterArea: 2 << level, MaxClusterOutputs: 24, Seed: int64(level)})
			if err != nil {
				t.Fatal(err)
			}
			cur = cl.Graph
			built = append(built, cur)
		}
	}
	build()
	allocs := testing.AllocsPerRun(2, build)
	validate := 0.0
	for _, cg := range built {
		validate += testing.AllocsPerRun(2, func() {
			if err := cg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	perLevel := (allocs - validate) / levels
	t.Logf("%d levels from %d cells: %.0f allocations, %.0f of them Validate's, %.1f per level besides", levels, g.NumCells(), allocs, validate, perLevel)
	if perLevel > 8 {
		t.Fatalf("a warm contraction made %.1f allocations per level besides Validate's, want at most 8", perLevel)
	}
}
