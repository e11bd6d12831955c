package kway_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/trace"
)

// engineCase is one search of TestEngineReuseIsInvisible. opts returns
// fresh options per run, since a fault plan records its firings.
type engineCase struct {
	name string
	g    *hypergraph.Graph
	opts func() kway.Options
}

// engineCases are searches that exercise every path through a worker's
// carve storage: flat carves, deep carves at maximum replication, the
// V-cycle with parallel refinement, the board placement, in-loop
// verification, a resume's replay and a contained panic. The V-cycle
// runs on s38584, whose finest levels clear fm's parallel cutoff (see
// fm.Config.RefineWorkers), so its parallel refinement really runs,
// and carves deep enough that later carves narrow the hierarchies of
// earlier ones.
func engineCases(t *testing.T) []engineCase {
	t.Helper()
	suite := func(name string) *hypergraph.Graph {
		c, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("suite has no %s", name)
		}
		return build(t, c)
	}
	c3540, s38584 := suite("c3540"), suite("s38584")
	mesh, err := bench.Generate(bench.Params{Cells: 1400, PrimaryIn: 40, PrimaryOut: 20, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	board := meshBoard(t)
	zero := 0
	flat := func() kway.Options { return kway.Options{Solutions: 4, Seed: 7, Workers: 2} }
	// The resumed run continues from the checkpoint after attempt 1 of
	// the flat c3540 search.
	var cps []kway.SearchCheckpoint
	cpOpts := flat()
	cpOpts.Checkpoint = func(cp kway.SearchCheckpoint) { cps = append(cps, cp) }
	if _, err := kway.Partition(c3540, cpOpts); err != nil {
		t.Fatal(err)
	}
	mid := cps[1]
	return []engineCase{
		{"c3540-flat", c3540, flat},
		{"s38584-t0", s38584, func() kway.Options {
			o := flat()
			o.Threshold, o.Solutions = &zero, 1
			return o
		}},
		{"s38584-multilevel", s38584, func() kway.Options {
			o := vcycleOptions(2)
			o.Solutions = 1
			return o
		}},
		{"mesh-board", mesh, func() kway.Options {
			o := flat()
			o.Board, o.Solutions = board, 2
			return o
		}},
		{"c3540-verify", c3540, func() kway.Options {
			o := flat()
			o.Verify = true
			return o
		}},
		{"c3540-resumed", c3540, func() kway.Options {
			o := flat()
			cp := mid
			o.Resume = &cp
			return o
		}},
		{"c3540-panic", c3540, func() kway.Options {
			o := flat()
			// A panic at an FM pass boundary leaves the worker's
			// carve storage mid-update.
			o.Inject = faultinject.NewPlan(faultinject.Rule{Site: faultinject.SitePass, Kind: faultinject.KindPanic, Attempt: 1, Index: 2})
			return o
		}},
	}
}

// engineRender is what TestEngineReuseIsInvisible compares: the
// summary, the fold statistics and every part, built and written.
func engineRender(g *hypergraph.Graph, res kway.Result) (string, error) {
	if err := kway.BuildParts(g, res.Parts); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%#v\n%#v\n", res.Summary, res.FoldStats)
	for _, p := range res.Parts {
		sb.WriteString(p.Device.Name + "\n")
		if err := hypergraph.Write(&sb, p.Graph); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

// TestEngineReuseIsInvisible: one Engine runs every search, first in
// sequence and then twice more from four goroutines at once, so its
// workers' carve storage passes between circuits, options and
// concurrent searches, a panicked attempt's storage included. Each
// result must equal the same search through the package-level
// PartitionContext, on a fresh engine.
func TestEngineReuseIsInvisible(t *testing.T) {
	cases := engineCases(t)
	want := make([]string, len(cases))
	for i, c := range cases {
		opts := c.opts()
		rec := recordEvents(&opts)
		res, err := kway.PartitionContext(context.Background(), c.g, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if opts.RefineWorkers >= 2 && len(rec.Filter(trace.KindParRound)) == 0 {
			t.Fatalf("%s: the search ran no parallel sub-round", c.name)
		}
		if _, narrowed, _ := coarsenings(t, rec.Events()); opts.Multilevel && narrowed == 0 {
			t.Fatalf("%s: no V-cycle narrowed a hierarchy", c.name)
		}
		if c.name == "c3540-panic" && !res.Degraded || c.name == "c3540-resumed" && !res.Resumed {
			t.Fatalf("%s: Degraded %v, Resumed %v", c.name, res.Degraded, res.Resumed)
		}
		if want[i], err = engineRender(c.g, res); err != nil {
			t.Fatal(err)
		}
	}
	var e kway.Engine
	check := func(i int) error {
		c := cases[i]
		res, err := e.Search(context.Background(), c.g, c.opts())
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		for p := range res.Parts {
			if res.Parts[p].Graph != nil {
				return fmt.Errorf("%s: part %d of an Engine.Search result has a graph", c.name, p)
			}
		}
		got, err := engineRender(c.g, res)
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		if got != want[i] {
			return fmt.Errorf("%s: the engine's result differs from PartitionContext's", c.name)
		}
		return nil
	}
	for i := range cases {
		if err := check(i); err != nil {
			t.Fatalf("in sequence: %v", err)
		}
	}
	// Four goroutines take the cases, each twice, off one queue, so
	// different circuits, and the same circuit twice, share the free
	// list at once.
	queue := make(chan int, 2*len(cases))
	for i := range 2 * len(cases) {
		queue <- i % len(cases)
	}
	close(queue)
	errs := make(chan error, cap(queue))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := check(i); err != nil {
					errs <- fmt.Errorf("concurrently: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The ceilings of TestWarmEngineBytes: what a warm Engine.Search
// allocates on each search, measured (go1.24, linux/amd64) plus 25%.
// A warm search allocates for its parts' cell lists, its results and
// the search's own bookkeeping; its workers' carve storage, and the
// part graphs it never builds, cost nothing.
const (
	// c5315EngineCeiling: 0.309 MB measured.
	c5315EngineCeiling = 386_000
	// vcycleEngineCeiling: 0.158 MB measured.
	vcycleEngineCeiling = 198_000
)

// TestWarmEngineBytes bounds the bytes a warm Engine.Search allocates
// on TestFlatCarveWork's and TestVCycleWork's searches. The race
// detector allocates on its own account, so it skips there.
func TestWarmEngineBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not apply under the race detector")
	}
	c, ok := bench.ByName("c5315")
	if !ok {
		t.Fatal("suite has no c5315")
	}
	for _, tc := range []struct {
		name    string
		g       *hypergraph.Graph
		opts    kway.Options
		ceiling uint64
	}{
		{"c5315", build(t, c), c5315Options(), c5315EngineCeiling},
		{"vc2000", vcycleCircuit(t), vcycleOptions(1), vcycleEngineCeiling},
	} {
		var e kway.Engine
		if _, err := e.Search(context.Background(), tc.g, tc.opts); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := e.Search(context.Background(), tc.g, tc.opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: a warm Engine.Search allocates %d bytes", tc.name, bytes)
		if bytes > tc.ceiling {
			t.Errorf("%s: a warm Engine.Search allocates %d bytes, ceiling %d", tc.name, bytes, tc.ceiling)
		}
	}
}

// build builds the benchmark circuit c, failing tb on an error.
func build(tb testing.TB, c bench.Circuit) *hypergraph.Graph {
	tb.Helper()
	g, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
