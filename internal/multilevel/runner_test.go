package multilevel

import (
	"fmt"
	"reflect"
	"testing"

	"fpgapart/internal/bitset"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// A V-cycle reports, picks its coarsest start by and refines the
// objective its FM runs minimize: Result.Cut is the cut of
// Result.Assign on a fresh state, t_P0 when pinned, and no level's
// refinement raises it.
func TestPinnedCycleReportsObjective(t *testing.T) {
	g := circuit(t, 1200, 21)
	for _, pinned := range []bool{false, true} {
		cfg := balancedConfig(g, 0.1, 1)
		cfg.PinExternal = pinned
		res, err := fresh(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := replication.NewStatePinned(g, res.Assign, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut != st.CutSize() {
			t.Fatalf("pinned=%v: Result.Cut %d, cut of Result.Assign %d", pinned, res.Cut, st.CutSize())
		}
		for _, s := range res.Levels {
			if s.CutRefined > s.CutProjected {
				t.Fatalf("pinned=%v level %d: refined %d above projected %d", pinned, s.Level, s.CutRefined, s.CutProjected)
			}
		}
	}
}

// recordEvents arms cfg's spans with a fresh recorder as their sink and
// returns it: events need armed spans.
func recordEvents(cfg *Config) *trace.Recorder {
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "multilevel-test"})
	cfg.Spans = tracer.Root(span.DeriveTraceID("multilevel-test", cfg.Seed, 0), 0).WithSink(rec)
	return rec
}

// Reuse is invisible: one Runner and one finest-level state fed a
// sequence of graphs (large, one too small to coarsen, the large one
// again) under flat and pinned objectives and both FM engines return
// exactly what a fresh Run returns every time. A stale buffer or layout
// key carried from the previous cycle would surface as a diverging
// result. The large graph's finest level clears fm's parallel cutoff
// (see fm.Config.RefineWorkers), so at refine=2 its cycles run parallel
// sub-rounds.
func TestRunnerMatchesFresh(t *testing.T) {
	large, small := circuit(t, 2100, 21), circuit(t, 80, 22)
	var r Runner
	var st replication.State
	for gi, g := range []*hypergraph.Graph{large, small, large} {
		for _, mode := range []string{"flat", "pinned"} {
			for _, refine := range []int{0, 2} {
				name := fmt.Sprintf("graph%d/%s/refine=%d", gi, mode, refine)
				cfg := balancedConfig(g, 0.1, int64(gi+1))
				cfg.RefineWorkers = refine
				cfg.PinExternal = mode == "pinned"
				rec := recordEvents(&cfg)
				want, err := fresh(g, cfg)
				if err != nil {
					t.Fatalf("%s: fresh: %v", name, err)
				}
				if refine >= 2 && g == large && len(rec.Filter(trace.KindParRound)) == 0 {
					t.Fatalf("%s: the cycle ran no parallel sub-round", name)
				}
				if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
					t.Fatal(err)
				}
				got, err := r.Run(&st, cfg)
				if err != nil {
					t.Fatalf("%s: warm: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: warm runner result %+v, fresh %+v", name, got.Levels, want.Levels)
				}
			}
		}
	}
}

// A warm Runner's second cycle on the same state lays out no state, FM
// or hierarchy storage: coarsening rebuilds the previous cycle's levels
// in place, and the starts, projections and repairs reuse the Runner's
// buffers, so what the cycle allocates is the result's level list.
// Building a replication state, an FM runner or a coarse level
// per level, as a one-shot cycle does, exceeds the bound.
func TestRunnerWarmAllocs(t *testing.T) {
	g := circuit(t, 1500, 23)
	cfg := balancedConfig(g, 0.1, 3)
	cfg.Starts = 1
	cfg = cfg.withDefaults()
	var r Runner
	var st replication.State
	if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(&st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	levels := len(res.Levels)
	warm := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(&st, cfg); err != nil {
			t.Fatal(err)
		}
	})
	oneShot := testing.AllocsPerRun(3, func() {
		if _, err := fresh(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d levels: warm cycle %v allocs, one-shot cycle %v", levels, warm, oneShot)
	if limit := 2.0; warm > limit {
		t.Fatalf("warm cycle allocates %v times, over %v for %d levels", warm, limit, levels)
	}
}

// retained sums the capacity bytes of every slice reachable from v
// through struct fields and the elements of slices of structs or
// pointers to structs; pointers elsewhere, maps and the elements of
// other slices (sub-slices of a buffer counted once) are not followed.
func retained(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += retained(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Cap() * int(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Struct || k == reflect.Pointer && v.Type().Elem().Elem().Kind() == reflect.Struct {
			for i := range v.Len() {
				e := v.Index(i)
				if e.Kind() == reflect.Pointer {
					if e.IsNil() {
						continue
					}
					n += int(e.Type().Elem().Size())
					e = e.Elem()
				}
				n += retained(e)
			}
		}
		return n
	}
	return 0
}

// A Runner's hierarchy storage follows the largest graph it has
// served, not the sequence of graphs: after a cycle on a 1500-cell
// graph, one on a 200-cell graph and the first again, its coarsener
// retains no more than after the first cycle, and at most 1.25× what a
// one-shot cycle of the large graph leaves behind.
func TestRunnerRetainedBytes(t *testing.T) {
	large, small := circuit(t, 1500, 23), circuit(t, 200, 24)
	run := func(r *Runner, g *hypergraph.Graph) int {
		t.Helper()
		var st replication.State
		if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(&st, balancedConfig(g, 0.1, 3)); err != nil {
			t.Fatal(err)
		}
		return retained(reflect.ValueOf(r.coarsener))
	}
	var oneShot Runner
	hierarchy := run(&oneShot, large)
	var r Runner
	first := run(&r, large)
	for i, g := range []*hypergraph.Graph{small, large} {
		if got := run(&r, g); got > first {
			t.Fatalf("cycle %d (%d cells): coarsener retains %d bytes, %d after the first cycle", i+2, g.NumCells(), got, first)
		}
	}
	t.Logf("one-shot hierarchy of %d cells: %d bytes; warm runner: %d bytes", large.NumCells(), hierarchy, first)
	if float64(first) > 1.25*float64(hierarchy) {
		t.Fatalf("warm runner retains %d bytes, over 1.25× the one-shot hierarchy's %d", first, hierarchy)
	}
}

// withExtraOutput returns circuit(t, cells, seed) with cell c also
// driving a new primary output with no other connection. Matching never
// scores a one-pin net, so the circuit and this variant coarsen into
// levels of equal cell counts, but c's cluster has one more output at
// every level.
func withExtraOutput(t *testing.T, cells int, seed int64, c hypergraph.CellID) *hypergraph.Graph {
	t.Helper()
	h := circuit(t, cells, seed)
	id := hypergraph.NetID(len(h.Nets))
	h.Nets = append(h.Nets, hypergraph.Net{Name: "extra-out", Ext: hypergraph.ExtOut})
	cell := &h.Cells[c]
	cell.Outputs = append(cell.Outputs, id)
	cell.Dep = append(cell.Dep, bitset.FullRows(1, len(cell.Inputs))[0])
	h.RebuildConns()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

// levelShapes lists each hierarchy level's cell count and plain-FM gain
// bound, the key the FM layout cache would compare if recycled levels
// kept their layout.
func levelShapes(t *testing.T, g *hypergraph.Graph, cfg Config) [][2]int {
	t.Helper()
	var r Runner
	var st replication.State
	if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
		t.Fatal(err)
	}
	var shapes [][2]int
	levels, _ := r.coarsen(&st, cfg.withDefaults(), cfg.TargetArea, false)
	for _, lv := range levels {
		shapes = append(shapes, [2]int{lv.st.NumCells(), lv.st.MaxCellDegree()})
	}
	return shapes
}

// One Runner alternates between two graphs whose hierarchies agree
// level by level in cell count and gain bound — the FM layout key
// besides the layout id — but not in the cells' output counts, so
// every level is rebuilt in the same slot arrays with different
// contents. Every result must equal a fresh Run's, on the serial and
// the parallel engine; the graphs' finest levels clear fm's parallel
// cutoff (see fm.Config.RefineWorkers), so at refine=2 every cycle runs
// parallel sub-rounds. (That each contraction gets a new layout, so
// the key's id part always changes, is pinned in package cluster.)
func TestRunnerRecycledLevelsGetNewLayouts(t *testing.T) {
	a := circuit(t, 2100, 31)
	cfg := balancedConfig(a, 0.1, 5)
	want := levelShapes(t, a, cfg)
	var b *hypergraph.Graph
	for c := range a.Cells {
		if len(a.Cells[c].Outputs) != 1 {
			continue
		}
		cand := withExtraOutput(t, 2100, 31, hypergraph.CellID(c))
		if reflect.DeepEqual(levelShapes(t, cand, cfg), want) {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("no single-output cell keeps every level's shape when given an extra output")
	}
	for _, refine := range []int{0, 2} {
		var r Runner
		var st replication.State
		for i, g := range []*hypergraph.Graph{a, b, a, b} {
			cfg := balancedConfig(g, 0.1, 5)
			cfg.RefineWorkers = refine
			rec := recordEvents(&cfg)
			want, err := fresh(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if refine >= 2 && len(rec.Filter(trace.KindParRound)) == 0 {
				t.Fatalf("refine=%d cycle %d: the cycle ran no parallel sub-round", refine, i)
			}
			if err := st.Rebind(g, make([]replication.Block, g.NumCells()), false); err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(&st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("refine=%d cycle %d: warm runner result %+v, fresh %+v", refine, i, got.Levels, want.Levels)
			}
		}
	}
}
