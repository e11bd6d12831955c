package fm

import (
	"math/rand"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

func testGraph(t testing.TB, cells int, seed int64, clustering float64) *hypergraph.Graph {
	t.Helper()
	g, err := bench.Generate(bench.Params{
		Name: "fmtest", Cells: cells, PrimaryIn: 10, PrimaryOut: 6,
		Seed: seed, Clustering: clustering,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func equalCfg(g *hypergraph.Graph, threshold int, seed int64) Config {
	minA, maxA := Balance(g.TotalArea(), 0.10)
	return Config{MinArea: minA, MaxArea: maxA, Threshold: threshold, Seed: seed}
}

func TestRandomAssignBalanced(t *testing.T) {
	g := testGraph(t, 200, 1, 0.4)
	assign := RandomAssign(g, 42)
	var area [2]int
	for ci, b := range assign {
		area[b] += g.Cells[ci].Area
	}
	total := g.TotalArea()
	if area[0] < total/2-1 || area[0] > total/2+5 {
		t.Fatalf("block 0 area = %d of %d", area[0], total)
	}
}

func TestRandomAssignDeterministic(t *testing.T) {
	g := testGraph(t, 100, 2, 0.4)
	a := RandomAssign(g, 7)
	b := RandomAssign(g, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomAssign not deterministic")
		}
	}
}

func TestBalanceBounds(t *testing.T) {
	minA, maxA := Balance(100, 0.05)
	if minA[0] != 45 || maxA[0] != 55 {
		t.Fatalf("bounds = %v %v", minA, maxA)
	}
	minA, maxA = Balance(0, 0.05)
	if minA[0] != 0 || maxA[0] != 1 {
		t.Fatalf("degenerate bounds = %v %v", minA, maxA)
	}
}

func TestRunReducesCut(t *testing.T) {
	g := testGraph(t, 150, 3, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := st.CutSize()
	res, err := new(Runner).Run(st, equalCfg(g, NoReplication, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut > before {
		t.Fatalf("cut increased: %d -> %d", before, res.Cut)
	}
	if res.Cut != st.CutSize() {
		t.Fatalf("result cut %d != state cut %d", res.Cut, st.CutSize())
	}
	if res.Cut >= before {
		t.Logf("warning: no improvement (%d -> %d)", before, res.Cut)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRespectsBalance(t *testing.T) {
	g := testGraph(t, 150, 4, 0.5)
	cfg := equalCfg(g, NoReplication, 2)
	st, err := replication.NewState(g, RandomAssign(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Runner).Run(st, cfg); err != nil {
		t.Fatal(err)
	}
	for b := replication.Block(0); b < 2; b++ {
		if a := st.Area(b); a < cfg.MinArea[b] || a > cfg.MaxArea[b] {
			t.Fatalf("block %d area %d outside [%d,%d]", b, a, cfg.MinArea[b], cfg.MaxArea[b])
		}
	}
}

func TestRunNoReplicationKeepsCellsSingle(t *testing.T) {
	g := testGraph(t, 120, 5, 0.5)
	st, _ := replication.NewState(g, RandomAssign(g, 3))
	if _, err := new(Runner).Run(st, equalCfg(g, NoReplication, 3)); err != nil {
		t.Fatal(err)
	}
	if st.ReplicatedCount() != 0 {
		t.Fatalf("plain FM replicated %d cells", st.ReplicatedCount())
	}
}

// runEngine runs st through the serial engine (workers < 2) or, whatever
// the state's size, the parallel one.
func runEngine(r *Runner, st *replication.State, cfg Config, workers int) (Result, error) {
	cfg.RefineWorkers = workers
	return r.run(st, cfg, workers >= 2)
}

// Only runs that offer replication moves build the state's split-gain
// table, and then once per graph: plain runs — every V-cycle level is
// one — never pay for it.
func TestSplitTableOnlyForReplicationRuns(t *testing.T) {
	g := testGraph(t, 120, 5, 0.5)
	for _, workers := range []int{0, 2} {
		st, err := replication.NewState(g, RandomAssign(g, 3))
		if err != nil {
			t.Fatal(err)
		}
		var r Runner
		for _, tc := range []struct {
			threshold int
			tables    int64
		}{{NoReplication, 0}, {NoReplication, 0}, {0, 1}, {1, 1}, {NoReplication, 1}} {
			if _, err := runEngine(&r, st, equalCfg(g, tc.threshold, 3), workers); err != nil {
				t.Fatal(err)
			}
			if got := st.Stats().SplitTables; got != tc.tables {
				t.Fatalf("workers=%d: after a T=%d run the state built %d split tables, want %d",
					workers, tc.threshold, got, tc.tables)
			}
		}
	}
}

// The paper's central result: functional replication reduces the cut
// relative to plain FM. On a single instance the relation is
// stochastic, so compare sums over several seeds and require the
// replication runs to win in aggregate and never lose badly.
func TestReplicationImprovesCutInAggregate(t *testing.T) {
	var plainSum, replSum int
	for seed := int64(0); seed < 5; seed++ {
		g := testGraph(t, 200, 10+seed, 0.65)
		stPlain, resPlain, err := Bipartition(g, Options{Config: equalCfg(g, NoReplication, seed), Starts: 3})
		if err != nil {
			t.Fatal(err)
		}
		stRepl, resRepl, err := Bipartition(g, Options{Config: equalCfg(g, 0, seed), Starts: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := stPlain.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := stRepl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		plainSum += resPlain.Cut
		replSum += resRepl.Cut
	}
	if replSum >= plainSum {
		t.Fatalf("replication did not help in aggregate: plain=%d repl=%d", plainSum, replSum)
	}
	t.Logf("aggregate cut: plain=%d with-replication=%d (%.1f%% reduction)",
		plainSum, replSum, 100*float64(plainSum-replSum)/float64(plainSum))
}

func TestThresholdLimitsReplication(t *testing.T) {
	g := testGraph(t, 200, 21, 0.6)
	counts := make(map[int]int)
	for _, T := range []int{0, 1, 3, 5} {
		st, _, err := Bipartition(g, Options{Config: equalCfg(g, T, 9), Starts: 2})
		if err != nil {
			t.Fatal(err)
		}
		counts[T] = st.ReplicatedCount()
		// Every replicated cell must satisfy the threshold.
		for ci := 0; ci < g.NumCells(); ci++ {
			c := hypergraph.CellID(ci)
			if st.IsReplicated(c) && !st.CanReplicate(c, T) {
				t.Fatalf("T=%d: ineligible cell %d replicated (ψ=%d)", T, ci, g.Cell(c).ReplicationPotential())
			}
		}
	}
	if counts[5] > counts[0] {
		t.Fatalf("higher threshold should not replicate more: %v", counts)
	}
}

var badConfigs = []struct {
	name string
	cfg  Config
}{
	{"zero MaxArea", Config{}},
	{"one zero MaxArea", Config{MaxArea: [2]int{0, 10}}},
	{"negative MinArea", Config{MaxArea: [2]int{100, 100}, MinArea: [2]int{-1, 0}}},
	{"initial area outside bounds", Config{MaxArea: [2]int{1, 1}}},
}

// validationErrors runs every malformed configuration through the
// engine the given RefineWorkers names (see runEngine) and returns the
// error messages, failing on any accepted.
func validationErrors(t *testing.T, workers int) []string {
	t.Helper()
	g := testGraph(t, 20, 6, 0.4)
	st, _ := replication.NewState(g, RandomAssign(g, 1))
	msgs := make([]string, len(badConfigs))
	for i, tc := range badConfigs {
		_, err := runEngine(new(Runner), st, tc.cfg, workers)
		if err == nil {
			t.Fatalf("%s accepted with RefineWorkers %d", tc.name, workers)
		}
		msgs[i] = err.Error()
	}
	return msgs
}

func TestRunValidatesConfig(t *testing.T) {
	validationErrors(t, 0)
}

// Both engines share one validation: a malformed configuration fails
// with the same error whichever engine RefineWorkers selects.
func TestParallelRunValidation(t *testing.T) {
	serial, parallel := validationErrors(t, 0), validationErrors(t, 2)
	for i, tc := range badConfigs {
		if serial[i] != parallel[i] {
			t.Fatalf("%s: serial engine says %q, parallel engine %q", tc.name, serial[i], parallel[i])
		}
	}
}

func TestBipartitionMultiStartNotWorseThanSingle(t *testing.T) {
	g := testGraph(t, 150, 7, 0.5)
	_, single, err := Bipartition(g, Options{Config: equalCfg(g, NoReplication, 5), Starts: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, multi, err := Bipartition(g, Options{Config: equalCfg(g, NoReplication, 5), Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cut > single.Cut {
		t.Fatalf("multi-start worse than its own first start: %d > %d", multi.Cut, single.Cut)
	}
}

func TestRunDeterministic(t *testing.T) {
	g := testGraph(t, 120, 8, 0.5)
	run := func() int {
		st, _ := replication.NewState(g, RandomAssign(g, 11))
		res, err := new(Runner).Run(st, equalCfg(g, 0, 11))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cut
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// Property: after FM with replication, both blocks materialize into
// valid subcircuits whose cell areas match the state's accounting.
func TestRunSubcircuitsConsistent(t *testing.T) {
	g := testGraph(t, 150, 9, 0.6)
	st, _, err := Bipartition(g, Options{Config: equalCfg(g, 0, 13), Starts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for b := replication.Block(0); b < 2; b++ {
		sub, err := g.Subcircuit("blk", st.InstanceSpecs(b), func(n hypergraph.NetID) bool { return st.CutNet(n) })
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if sub.TotalArea() != st.Area(b) {
			t.Fatalf("block %d: subcircuit area %d != state area %d", b, sub.TotalArea(), st.Area(b))
		}
		// Terminal count of the subcircuit equals the state's t_Pb.
		if sub.NumTerminals() != st.Terminals(b) {
			t.Fatalf("block %d: subcircuit terminals %d != state %d", b, sub.NumTerminals(), st.Terminals(b))
		}
	}
}

// Fuzz-ish: many small random graphs, no panics, invariants hold.
func TestRunManySmallGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		cells := 20 + r.Intn(60)
		g := testGraph(t, cells, int64(100+i), r.Float64()*0.8)
		st, _, err := Bipartition(g, Options{Config: equalCfg(g, r.Intn(3)-1, int64(i)), Starts: 1})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

// clusterAssign grows a cluster over a state bound to g.
func clusterAssign(t *testing.T, g *hypergraph.Graph, seed int64, target int) []replication.Block {
	t.Helper()
	st, err := replication.NewState(g, make([]replication.Block, g.NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterScratch
	return cs.Assign(nil, st, seed, target)
}

func TestClusterAssignHitsTargetArea(t *testing.T) {
	g := testGraph(t, 200, 70, 0.6)
	target := g.TotalArea() / 3
	assign := clusterAssign(t, g, 5, target)
	area := 0
	for ci, b := range assign {
		if b == 0 {
			area += g.Cells[ci].Area
		}
	}
	if area != target {
		t.Fatalf("cluster area = %d, want %d (unit-area cells)", area, target)
	}
	// A cluster-grown block should have a smaller boundary than a
	// random block of the same size.
	stC, err := replication.NewState(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	rnd := make([]replication.Block, g.NumCells())
	for i := range rnd {
		if i >= target {
			rnd[i] = 1
		}
	}
	// Shuffle deterministically for a fair random block.
	r := rand.New(rand.NewSource(5))
	r.Shuffle(len(rnd), func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })
	stR, err := replication.NewState(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if stC.CutSize() >= stR.CutSize() {
		t.Fatalf("cluster cut %d not below random cut %d", stC.CutSize(), stR.CutSize())
	}
}

// A one-cell cluster is its start cell alone, and the start is
// peripheral: it touches an external net.
func TestOneCellClusterIsPeripheral(t *testing.T) {
	g := testGraph(t, 100, 71, 0.5)
	for seed := int64(1); seed <= 20; seed++ {
		var in0 []hypergraph.CellID
		for ci, b := range clusterAssign(t, g, seed, 1) {
			if b == 0 {
				in0 = append(in0, hypergraph.CellID(ci))
			}
		}
		if len(in0) != 1 {
			t.Fatalf("seed %d: block 0 has %d cells, want 1", seed, len(in0))
		}
		external := false
		for _, n := range g.CellNets(in0[0]) {
			external = external || g.Nets[n].Ext != hypergraph.Internal
		}
		if !external {
			t.Fatalf("seed %d: start cell %d touches no external net", seed, in0[0])
		}
	}
}

func TestClusterAssignDegenerate(t *testing.T) {
	g := testGraph(t, 20, 72, 0.5)
	assign := clusterAssign(t, g, 1, 0)
	for _, b := range assign {
		if b != 1 {
			t.Fatal("zero target should leave everything in block 1")
		}
	}
	// Target beyond total pulls everything into block 0.
	assign = clusterAssign(t, g, 1, g.TotalArea()+5)
	for _, b := range assign {
		if b != 0 {
			t.Fatal("oversized target should pull all cells")
		}
	}
}
