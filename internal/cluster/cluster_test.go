package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/bitset"
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

// stateOf binds a fresh state to g, the finest level of a hierarchy.
func stateOf(t *testing.T, g *hypergraph.Graph) *replication.State {
	t.Helper()
	st, err := replication.NewState(g, make([]replication.Block, g.NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildReducesAndCovers(t *testing.T) {
	g := testGraph(t, 300, 1)
	cl, err := new(Coarsener).Build(0, stateOf(t, g), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lv := cl.Level
	if lv.NumCells() >= g.NumCells() {
		t.Fatalf("no reduction: %d -> %d", g.NumCells(), lv.NumCells())
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
	if lv.TotalArea() != g.TotalArea() {
		t.Fatalf("area %d != %d", lv.TotalArea(), g.TotalArea())
	}
	// The level is a usable state.
	if err := lv.ResetPinned(make([]replication.Block, lv.NumCells()), false); err != nil {
		t.Fatal(err)
	}
	if err := lv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Four chained levels, each contracted into its own slot of one
// Coarsener, all stay under the area cap.
func TestBuildRespectsAreaCap(t *testing.T) {
	st := stateOf(t, testGraph(t, 300, 2))
	var c Coarsener
	for level := 0; level < 4; level++ {
		cl, err := c.Build(level, st, Options{MaxClusterArea: 4, Seed: 2 + int64(level)})
		if err != nil {
			t.Fatal(err)
		}
		for ci := range cl.Level.NumCells() {
			if a := cl.Level.CellArea(hypergraph.CellID(ci)); a > 4 {
				t.Fatalf("level %d cluster %d area %d > cap", level, ci, a)
			}
		}
		st = cl.Level
	}
}

func TestBuildDeterministic(t *testing.T) {
	st := stateOf(t, testGraph(t, 200, 3))
	a, err := new(Coarsener).Build(0, st, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := new(Coarsener).Build(0, st, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameFields(reflect.ValueOf(a.Level).Elem(), reflect.ValueOf(b.Level).Elem(), ""); d != "" {
		t.Fatalf("nondeterministic clustering: %s", d)
	}
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Fatal("nondeterministic member lists")
	}
}

func TestProject(t *testing.T) {
	g := testGraph(t, 150, 4)
	cl, err := new(Coarsener).Build(0, stateOf(t, g), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	coarse := make([]replication.Block, cl.Level.NumCells())
	for i := range coarse {
		coarse[i] = replication.Block(i % 2)
	}
	fine, err := cl.Project(nil, coarse, g.NumCells())
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
	// A projection into a large enough buffer reuses it.
	again, err := cl.Project(fine, coarse, g.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &fine[0] {
		t.Fatal("projection did not reuse its destination")
	}
	if _, err := cl.Project(nil, coarse[:1], g.NumCells()); err == nil {
		t.Fatal("short coarse assignment should fail")
	}
}

// Clustering must preserve the cut structure: the projection of any
// coarse bipartition has the same cut as the coarse bipartition
// itself (internal nets of a cluster can never be cut).
func TestCutPreservation(t *testing.T) {
	g := testGraph(t, 200, 6)
	cl, err := new(Coarsener).Build(0, stateOf(t, g), Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	coarse := make([]replication.Block, cl.Level.NumCells())
	for i := range coarse {
		coarse[i] = replication.Block((i / 3) % 2)
	}
	if err := cl.Level.ResetPinned(coarse, false); err != nil {
		t.Fatal(err)
	}
	fine, err := cl.Project(nil, coarse, g.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	stFine, err := replication.NewState(g, fine)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Level.CutSize() != stFine.CutSize() {
		t.Fatalf("coarse cut %d != projected fine cut %d", cl.Level.CutSize(), stFine.CutSize())
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

// graphContract is the dense-array graph contraction the level
// contraction replaced, kept as the second reference: the same net
// survey and pin gathering, building a named graph with
// full-dependence rows that must pass the duplicate net-name check and
// Validate.
func graphContract(g *hypergraph.Graph, match []int) (*hypergraph.Graph, error) {
	n := g.NumCells()
	clusterOf := make([]int32, n)
	var lists [][]hypergraph.CellID
	for ci := 0; ci < n; ci++ {
		if match[ci] < ci {
			continue
		}
		cl := int32(len(lists))
		clusterOf[ci] = cl
		ms := []hypergraph.CellID{hypergraph.CellID(ci)}
		if match[ci] != ci {
			clusterOf[match[ci]] = cl
			ms = append(ms, hypergraph.CellID(match[ci]))
		}
		lists = append(lists, ms)
	}
	m := g.NumNets()
	first := make([]int32, m)
	shared := make([]bool, m)
	driver := make([]int32, m)
	for ni := range first {
		first[ni], driver[ni] = -1, -1
	}
	touch := func(net hypergraph.NetID, cl int32) {
		switch first[net] {
		case -1:
			first[net] = cl
		case cl:
		default:
			shared[net] = true
		}
	}
	for ci := range g.Cells {
		cl := clusterOf[ci]
		for _, net := range g.Cells[ci].Outputs {
			touch(net, cl)
			driver[net] = cl
		}
		for _, net := range g.Cells[ci].Inputs {
			if net != hypergraph.NilNet {
				touch(net, cl)
			}
		}
	}
	coarse := &hypergraph.Graph{Name: g.Name + "~"}
	netID := make([]hypergraph.NetID, m)
	names := map[string]bool{}
	for ni := range g.Nets {
		netID[ni] = hypergraph.NilNet
		net := &g.Nets[ni]
		if !shared[ni] && net.Ext == hypergraph.Internal {
			continue
		}
		if names[net.Name] {
			return nil, fmt.Errorf("cluster: duplicate net name %q in %q", net.Name, g.Name)
		}
		names[net.Name] = true
		netID[ni] = hypergraph.NetID(len(coarse.Nets))
		coarse.Nets = append(coarse.Nets, hypergraph.Net{Name: net.Name, Ext: net.Ext})
	}
	seenIn := make([]int32, len(coarse.Nets))
	seenOut := make([]int32, len(coarse.Nets))
	for cl, ms := range lists {
		stamp := int32(cl + 1)
		var ins, outs []hypergraph.NetID
		area, dffs := 0, 0
		for _, mi := range ms {
			cell := &g.Cells[mi]
			area += cell.Area
			dffs += cell.DFFs
			for _, net := range cell.Outputs {
				if id := netID[net]; id != hypergraph.NilNet && seenOut[id] != stamp {
					seenOut[id] = stamp
					outs = append(outs, id)
				}
			}
			for _, net := range cell.Inputs {
				if net == hypergraph.NilNet {
					continue
				}
				id := netID[net]
				if id == hypergraph.NilNet || seenIn[id] == stamp || driver[net] == int32(cl) {
					continue
				}
				seenIn[id] = stamp
				ins = append(ins, id)
			}
		}
		if len(outs) == 0 {
			return nil, fmt.Errorf("cluster: cluster %d of %q has no surviving outputs", cl, g.Name)
		}
		coarse.Cells = append(coarse.Cells, hypergraph.Cell{
			Name: "k" + strconv.Itoa(cl), Inputs: ins, Outputs: outs,
			Dep: bitset.FullRows(len(outs), len(ins)), Area: area, DFFs: dffs,
		})
	}
	coarse.RebuildConns()
	if err := coarse.Validate(); err != nil {
		return nil, err
	}
	return coarse, nil
}

func render(t *testing.T, g *hypergraph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := hypergraph.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sameFields compares two states field by field, the graph and the
// layout id aside, and describes the first difference ("" when none).
func sameFields(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if path == "" && (name == "g" || name == "layout") {
				continue
			}
			if d := sameFields(a.Field(i), b.Field(i), path+"."+name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d, want %d", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := sameFields(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v, want %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d, want %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d, want %d", path, a.Uint(), b.Uint())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}

// TestCoarseningMatchesReference pins the level matching and
// contraction to two graph references, level after level, across
// seeds, area caps and output caps. The match vector must equal the
// map-based refMatchRound's on the graph the level stands for; the
// dense graphContract must render the graph refContract builds; and
// the contracted level, reset to an assignment, must equal field by
// field a state bound to that graph and reset alike. The reference
// keeps the circuit's area and DFF totals, which levels do not carry.
// One Coarsener
// serves every case, so each contraction also runs on scratch and
// slots left dirty by the previous ones.
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
			g, st := base, stateOf(t, base)
			for level := 0; level < 4; level++ {
				seed := tc.seed + int64(level)
				match := c.matchRound(st, opts, rand.New(rand.NewSource(seed)))
				want := refMatchRound(g, opts, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(match, want) {
					t.Fatalf("circuit %d %+v level %d: match vector differs from the reference", gs, tc, level)
				}
				cl, err := c.contract(level, st, match)
				refCoarse, refMembers, refErr := refContract(g, want)
				dense, denseErr := graphContract(g, want)
				if (err != nil) != (refErr != nil) || (denseErr != nil) != (refErr != nil) {
					t.Fatalf("circuit %d %+v level %d: error %v, references %v and %v", gs, tc, level, err, refErr, denseErr)
				}
				if err != nil {
					break
				}
				if got, want := render(t, dense), render(t, refCoarse); got != want {
					t.Fatalf("circuit %d %+v level %d: the dense graph contraction differs from the map-based one\n--- got ---\n%.1500s\n--- want ---\n%.1500s", gs, tc, level, got, want)
				}
				if !reflect.DeepEqual(cl.Members, refMembers) {
					t.Fatalf("circuit %d %+v level %d: member lists differ from the reference", gs, tc, level)
				}
				if refCoarse.TotalArea() != base.TotalArea() || refCoarse.NumDFF() != base.NumDFF() {
					t.Fatalf("circuit %d %+v level %d: the reference has area %d and %d DFFs, the circuit %d and %d",
						gs, tc, level, refCoarse.TotalArea(), refCoarse.NumDFF(), base.TotalArea(), base.NumDFF())
				}
				assign := make([]replication.Block, refCoarse.NumCells())
				for i := range assign {
					assign[i] = replication.Block(i / 3 % 2)
				}
				var ref replication.State
				if err := ref.Rebind(refCoarse, assign, level%2 == 1); err != nil {
					t.Fatal(err)
				}
				if err := cl.Level.ResetPinned(assign, level%2 == 1); err != nil {
					t.Fatal(err)
				}
				if d := sameFields(reflect.ValueOf(cl.Level).Elem(), reflect.ValueOf(&ref).Elem(), ""); d != "" {
					t.Fatalf("circuit %d %+v level %d: the level differs from the state of the reference graph: %s", gs, tc, level, d)
				}
				if refCoarse.NumCells() == g.NumCells() {
					break
				}
				g, st = refCoarse, cl.Level
			}
		}
	}
}

// A Build into a slot rebuilds the slot's level in place and gives it
// a new layout, so the FM engines' per-layout buffers never take the
// new level for the one it replaced.
func TestRebuildGetsNewLayout(t *testing.T) {
	st := stateOf(t, testGraph(t, 300, 8))
	var c Coarsener
	a, err := c.Build(0, st, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	layout := a.Level.Layout()
	b, err := c.Build(0, st, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Level != a.Level {
		t.Fatal("a second Build into slot 0 did not reuse the slot's level")
	}
	if b.Level.Layout() == layout {
		t.Fatal("a second Build into slot 0 kept the first one's layout")
	}
}

// TestBuildAllocs pins the allocations of a warm contraction on the
// benchmark's 8000-cell V-cycle circuit at zero: with every slot and
// scratch buffer already grown, rebuilding four levels allocates
// nothing. A per-level graph, name, map entry or clustering header
// puts it above zero.
func TestBuildAllocs(t *testing.T) {
	g, err := bench.Generate(bench.Params{Name: "large8000", Cells: 8000, PrimaryIn: 120, PrimaryOut: 200,
		DFFs: 4000, Clustering: 0.7, DistantPackFrac: 0.07, Seed: 38584})
	if err != nil {
		t.Fatal(err)
	}
	const levels = 4
	src := stateOf(t, g)
	var c Coarsener
	build := func() {
		cur := src
		for level := 0; level < levels; level++ {
			cl, err := c.Build(level, cur, Options{MaxClusterArea: 2 << level, MaxClusterOutputs: 24, Seed: int64(level)})
			if err != nil {
				t.Fatal(err)
			}
			cur = cl.Level
		}
	}
	build()
	allocs := testing.AllocsPerRun(2, build)
	t.Logf("%d levels from %d cells: %.0f allocations", levels, g.NumCells(), allocs)
	if allocs != 0 {
		t.Fatalf("a warm contraction of %d levels made %.0f allocations, want 0", levels, allocs)
	}
}

// level builds a V-cycle level by hand: nets terminal as ext says, and
// one cell per entry of cells, of area 1, reading ins and driving outs.
func level(t *testing.T, ext []bool, cells [][2][]hypergraph.NetID) *replication.State {
	t.Helper()
	st := &replication.State{}
	st.StartLevel(len(cells), len(ext))
	for _, e := range ext {
		st.AddLevelNet(e)
	}
	for _, c := range cells {
		if err := st.AddLevelCell(1, c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	st.FinishLevel()
	return st
}

// A contraction checks over the finer level's arrays what validating a
// coarse graph would catch: a net with two drivers, and a cluster whose
// every output net stays inside it.
func TestContractRejectsMalformedLevels(t *testing.T) {
	nets := func(ids ...hypergraph.NetID) []hypergraph.NetID { return ids }
	for _, tc := range []struct {
		name  string
		ext   []bool
		cells [][2][]hypergraph.NetID
		want  string
	}{
		{
			// Cells 0 and 1 both drive net 1.
			name:  "two drivers",
			ext:   []bool{true, false, true},
			cells: [][2][]hypergraph.NetID{{nets(0), nets(1)}, {nets(0), nets(1, 2)}},
			want:  "two drivers",
		},
		{
			// An isolated pair feeding each other: matched together,
			// both its nets vanish and the cluster has no output left.
			name:  "no surviving outputs",
			ext:   []bool{false, false},
			cells: [][2][]hypergraph.NetID{{nets(1), nets(0)}, {nets(0), nets(1)}},
			want:  "no surviving outputs",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := new(Coarsener).Build(0, level(t, tc.ext, tc.cells), Options{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build: error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
