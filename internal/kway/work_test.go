package kway_test

import (
	"runtime"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// c5315Work is the carve and FM work of a fixed-seed flat search on
// suite c5315 (8 solutions, seed 3, one worker). The search is
// deterministic, so the counts are exact; a change that moves them
// changes what the search does.
var c5315Work = struct {
	accepted, terminals, otherRejects, passes, moves int
}{accepted: 367, terminals: 182, otherRejects: 0, passes: 2982, moves: 182716}

// c5315AllocCeiling bounds the bytes a warm Partition call allocates on
// that search: 1.05 MB measured (go1.24, linux/amd64), plus 25%. The
// carve chain builds no graphs; what a call allocates is mostly its
// worker's storage, warmed once per call, and the parts' cell lists.
const c5315AllocCeiling = 1_310_000

func c5315Options() kway.Options {
	return kway.Options{Solutions: 8, Seed: 3, Workers: 1}
}

// TestFlatCarveWork pins the carve and FM work of the c5315 search,
// and, without the race detector, bounds the bytes one warm Partition
// call allocates on it.
func TestFlatCarveWork(t *testing.T) {
	c, ok := bench.ByName("c5315")
	if !ok {
		t.Fatal("suite has no c5315")
	}
	g := c.MustBuild()
	opts := c5315Options()
	rec := &trace.Recorder{}
	tracer := span.NewTracer(span.Options{Process: "kway-test"})
	opts.Spans = tracer.Root(span.DeriveTraceID("work", opts.Seed, opts.Solutions), 0).WithSink(rec)
	if _, err := kway.Partition(g, opts); err != nil {
		t.Fatal(err)
	}
	var accepted, terminals, other, passes, moves int
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindCarveAccepted:
			accepted++
		case e.Kind == trace.KindCarveRejected && e.Reason == trace.RejectTerminals:
			terminals++
		case e.Kind == trace.KindCarveRejected:
			other++
		case e.Kind == trace.KindFMPass:
			passes++
			moves += e.Moves
		}
	}
	t.Logf("accepted %d, terminal rejections %d, other rejections %d, FM passes %d, FM moves %d", accepted, terminals, other, passes, moves)
	w := c5315Work
	if accepted != w.accepted || terminals != w.terminals || other != w.otherRejects || passes != w.passes || moves != w.moves {
		t.Errorf("work (accepted, terminals, other, passes, moves) = (%d, %d, %d, %d, %d), want (%d, %d, %d, %d, %d)",
			accepted, terminals, other, passes, moves, w.accepted, w.terminals, w.otherRejects, w.passes, w.moves)
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
