package kway_test

import (
	"runtime"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// flatWork is the carve and FM work of the fixed-seed flat search
// TestFlatCarveWork runs on suite c5315 (8 solutions, seed 3, one
// worker). The search is deterministic, so the counts are exact; a
// change that moves them changes what the search does.
type flatWork struct {
	Accepted     int `json:"accepted"`
	Terminals    int `json:"terminals"`
	OtherRejects int `json:"other_rejects"`
	Passes       int `json:"passes"`
	Moves        int `json:"moves"`
}

// c5315AllocCeiling bounds the bytes a warm Partition call allocates on
// that search: 1.05 MB measured (go1.24, linux/amd64), plus 25%. The
// carve chain builds no graphs; what a call allocates is mostly its
// worker's storage, warmed once per call, and the parts' cell lists.
const c5315AllocCeiling = 1_310_000

func c5315Options() kway.Options {
	return kway.Options{Solutions: 8, Seed: 3, Workers: 1}
}

// TestFlatCarveWork pins the carve and FM work of the c5315 search to
// the work ledger's last row, and, without the race detector, bounds
// the bytes one warm Partition call allocates on it.
func TestFlatCarveWork(t *testing.T) {
	want := lastLedgerRow(t).FlatCarve
	c, ok := bench.ByName("c5315")
	if !ok {
		t.Fatal("suite has no c5315")
	}
	g := build(t, c)
	opts := c5315Options()
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	opts.Spans = tracer.Root(span.DeriveTraceID("work", opts.Seed, opts.Solutions), 0).WithSink(rec)
	if _, err := kway.Partition(g, opts); err != nil {
		t.Fatal(err)
	}
	var w flatWork
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindCarveAccepted:
			w.Accepted++
		case e.Kind == trace.KindCarveRejected && e.Reason == trace.RejectTerminals:
			w.Terminals++
		case e.Kind == trace.KindCarveRejected:
			w.OtherRejects++
		case e.Kind == trace.KindFMPass:
			w.Passes++
			w.Moves += e.Moves
		}
	}
	t.Logf("work: %+v", w)
	if w != want {
		t.Errorf("work %+v, want %+v", w, want)
	}

	if raceEnabled {
		return
	}
	plain := c5315Options()
	if _, err := kway.Partition(g, plain); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := kway.Partition(g, plain); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm Partition allocates %d bytes", bytes)
	if bytes > c5315AllocCeiling {
		t.Errorf("warm Partition allocates %d bytes, ceiling %d", bytes, c5315AllocCeiling)
	}
}

// parfmWork is the FM work of the fixed-seed flat search TestParfmWork
// runs on suite s38584 with parallel refinement (RefineWorkers 2, 8
// solutions, seed 3, one worker): the passes each engine runs and the
// moves they report. Its first carves refine states above fm's
// parallel cutoff (see fm.Config.RefineWorkers), the only ones the
// parallel engine takes.
type parfmWork struct {
	ParfmPasses int `json:"parfm_passes"`
	FMPasses    int `json:"fm_passes"`
	Moves       int `json:"moves"`
}

// TestParfmWork pins the parallel and serial FM work of the s38584
// search to the work ledger's last row, so the ledger pins the parallel
// pass where it runs. The counts must not depend on GOMAXPROCS.
func TestParfmWork(t *testing.T) {
	want := lastLedgerRow(t).Parfm
	c, ok := bench.ByName("s38584")
	if !ok {
		t.Fatal("suite has no s38584")
	}
	g := build(t, c)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		opts := kway.Options{RefineWorkers: 2, Solutions: 8, Seed: 3, Workers: 1}
		tracer := span.NewTracer(span.Options{Process: "kway-test", MaxSpansPerTrace: 1 << 22})
		id := span.DeriveTraceID("parfm-work", opts.Seed, opts.Solutions)
		rec := &trace.Recorder{}
		opts.Spans = tracer.Root(id, 0).WithSink(rec)
		if _, err := kway.Partition(g, opts); err != nil {
			t.Fatal(err)
		}
		var w parfmWork
		for _, e := range rec.Filter(trace.KindFMPass) {
			w.Moves += e.Moves
		}
		w.ParfmPasses, w.FMPasses = passSpans(t, tracer, id)
		t.Logf("GOMAXPROCS=%d work: %+v", procs, w)
		if w.ParfmPasses == 0 {
			t.Errorf("GOMAXPROCS=%d: the search ran no parallel pass", procs)
		}
		if w != want {
			t.Errorf("GOMAXPROCS=%d: work %+v, want %+v", procs, w, want)
		}
	}
}
