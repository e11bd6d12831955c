package kway_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures")

// goldenClock advances one millisecond per reading, so trace durations
// are deterministic without touching the wall clock.
func goldenClock() func() time.Time {
	var mu sync.Mutex
	t0 := time.Unix(1_700_000_000, 0)
	step := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		step++
		return t0.Add(time.Duration(step) * time.Millisecond)
	}
}

// goldenRender flattens a result to canonical bytes: each part's
// device name plus the materialized subcircuit text.
func goldenRender(t *testing.T, res kway.Result) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range res.Parts {
		sb.WriteString(p.Device.Name)
		sb.WriteByte('\n')
		if err := hypergraph.Write(&sb, p.Graph); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// goldenTrace serializes recorded events as JSONL after a stable sort
// on attempt (engine-level attempt −1 events last), which makes the
// stream independent of the interleaving between the worker and the
// reducing goroutine.
func goldenTrace(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	events := rec.Events()
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i].Attempt, events[j].Attempt
		if a == -1 {
			a = int(^uint(0) >> 1)
		}
		if b == -1 {
			b = int(^uint(0) >> 1)
		}
		return a < b
	})
	var buf bytes.Buffer
	j := trace.NewJSONL(&buf)
	for _, e := range events {
		j.Event(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run go test -run 'Golden|IsInert' -update): %v", err)
	}
	if string(want) != got {
		t.Fatalf("%s drifted from the committed golden fixture.\nFixed-seed results must stay byte-identical to the committed engine;\nif the change is intentional, regenerate with -update.\n--- got (first 2000 bytes) ---\n%.2000s", name, got)
	}
}

// goldenRun runs the fixture search with spans armed on a goldenClock
// tracer (unless the caller armed its own scope), so the trace stream
// carries phase events with deterministic span durations.
func goldenRun(t *testing.T, opts kway.Options) (kway.Result, *trace.Recorder) {
	t.Helper()
	if !opts.Spans.Enabled() {
		tracer := span.NewTracer(span.Options{Process: "kway-test", Now: goldenClock(), Origin: 1})
		opts.Spans = tracer.Root(span.DeriveTraceID("golden", 11, 6), 0)
	}
	return goldenSearch(t, opts)
}

// goldenSearch runs the fixture search with opts' spans as given,
// recording the events they carry.
func goldenSearch(t *testing.T, opts kway.Options) (kway.Result, *trace.Recorder) {
	t.Helper()
	// The fixtures were recorded at T = 0, maximum replication.
	zero := 0
	opts.Threshold = &zero
	opts.Solutions = 6
	opts.Seed = 11
	opts.Workers = 1 // single worker: the trace stream is sequential
	return recordSearch(t, bench.Params{Cells: 400, PrimaryIn: 12, PrimaryOut: 8, Seed: 3, Clustering: 0.5}, opts)
}

// recordSearch runs a search on the XC3000 library over the circuit p
// generates, recording the events opts' spans carry.
func recordSearch(t *testing.T, p bench.Params, opts kway.Options) (kway.Result, *trace.Recorder) {
	t.Helper()
	g, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	opts.Library = library.XC3000()
	opts.Spans = opts.Spans.WithSink(rec)
	res, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// terminalBound is a circuit whose carves are bound by terminals: 200
// cells under 100 primary inputs and 80 primary outputs, so a carve
// sized for a device's CLBs overflows its IOBs, and most carves follow
// a terminal rejection.
var terminalBound = bench.Params{Cells: 200, PrimaryIn: 100, PrimaryOut: 80, Seed: 3, Clustering: 0.35}

// terminalBoundOptions are the options of the terminal-bound fixture
// search: one worker, so the trace stream is sequential.
func terminalBoundOptions() kway.Options {
	return kway.Options{Solutions: 4, Seed: 11, Workers: 1}
}

// followsPressuredCarve reports whether some attempt accepts a carve
// after an earlier carve of the same attempt was accepted under
// terminal pressure, that is after a terminal rejection of its own.
// Only such a carve can start from a size an earlier carve learned.
func followsPressuredCarve(events []trace.Event) bool {
	type attemptState struct{ pressured, learned bool }
	states := map[int]*attemptState{}
	for _, e := range events {
		st := states[e.Attempt]
		if st == nil {
			st = &attemptState{}
			states[e.Attempt] = st
		}
		switch {
		case e.Kind == trace.KindCarveRejected && e.Reason == trace.RejectTerminals:
			st.pressured = true
		case e.Kind == trace.KindCarveAccepted:
			if st.learned {
				return true
			}
			st.learned = st.learned || st.pressured
			st.pressured = false
		}
	}
	return false
}

// TestFlatPathGolden pins the classic engine byte-for-byte: a
// fixed-seed search with Options.Multilevel=false must reproduce the
// committed partition rendering AND the committed JSONL trace stream
// exactly. This is the regression gate proving the multilevel wiring
// left the default path untouched.
func TestFlatPathGolden(t *testing.T) {
	res, rec := goldenRun(t, kway.Options{})
	goldenCompare(t, "flat_golden_result.txt", goldenRender(t, res))
	goldenCompare(t, "flat_golden_trace.jsonl", goldenTrace(t, rec))
}

// TestTerminalBoundGolden pins the flat engine on the terminal-bound
// circuit byte-for-byte, partition rendering and JSONL trace stream.
// Its trace must hold a carve accepted after a pressured acceptance in
// the same attempt, so the fixture reads what one carve passes on to
// the next.
func TestTerminalBoundGolden(t *testing.T) {
	opts := terminalBoundOptions()
	tracer := span.NewTracer(span.Options{Process: "kway-test", Now: goldenClock(), Origin: 1})
	opts.Spans = tracer.Root(span.DeriveTraceID("golden", opts.Seed, opts.Solutions), 0)
	res, rec := recordSearch(t, terminalBound, opts)
	goldenCompare(t, "terminal_golden_result.txt", goldenRender(t, res))
	goldenCompare(t, "terminal_golden_trace.jsonl", goldenTrace(t, rec))
	if !followsPressuredCarve(rec.Events()) {
		t.Fatal("no attempt accepts a carve after a carve accepted under terminal pressure")
	}
}

// TestMultilevelPathGolden pins the V-cycle byte-for-byte the way
// TestFlatPathGolden pins the flat engine: with MultilevelMinCells
// lowered so that real carves coarsen, partition the coarsest level and
// refine every level, both the serial (RefineWorkers 0) and the
// parallel (RefineWorkers 2) refiners must reproduce their committed
// partition rendering AND JSONL trace stream exactly.
func TestMultilevelPathGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"parfm", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			res, rec := goldenRun(t, kway.Options{Multilevel: true, MultilevelMinCells: 128, RefineWorkers: tc.workers})
			goldenCompare(t, "multilevel_"+tc.name+"_golden_result.txt", goldenRender(t, res))
			goldenCompare(t, "multilevel_"+tc.name+"_golden_trace.jsonl", goldenTrace(t, rec))
		})
	}
}

// TestBoardPathGolden pins the board-backed engine byte-for-byte: a
// fixed-seed search on the mesh:2x4:1048576 board (net-weighted carves,
// Steiner span scoring, routing check) must reproduce its committed
// partition rendering AND JSONL trace stream exactly.
func TestBoardPathGolden(t *testing.T) {
	res, rec := goldenRun(t, kway.Options{Board: meshBoard(t)})
	goldenCompare(t, "board_golden_result.txt", goldenRender(t, res))
	goldenCompare(t, "board_golden_trace.jsonl", goldenTrace(t, rec))
}

// TestMultilevelGateIsInert proves the gate itself cannot perturb the
// flat path: with Multilevel=true but MultilevelMinCells above the
// circuit size, the V-cycle never engages and both the partition and
// the trace stream stay byte-identical to the flat golden fixtures.
func TestMultilevelGateIsInert(t *testing.T) {
	res, rec := goldenRun(t, kway.Options{Multilevel: true, MultilevelMinCells: 1 << 20})
	goldenCompare(t, "flat_golden_result.txt", goldenRender(t, res))
	goldenCompare(t, "flat_golden_trace.jsonl", goldenTrace(t, rec))
}

// TestRefineWorkersGateIsInert proves RefineWorkers <= 1 routes through
// the classic serial FM engine untouched: both the unset (0) and the
// explicit serial (1) settings must reproduce the flat golden fixtures
// byte-for-byte — partition rendering AND JSONL trace stream. Only
// RefineWorkers >= 2 may switch to the parallel sub-round engine.
func TestRefineWorkersGateIsInert(t *testing.T) {
	for _, workers := range []int{0, 1} {
		res, rec := goldenRun(t, kway.Options{RefineWorkers: workers})
		goldenCompare(t, "flat_golden_result.txt", goldenRender(t, res))
		goldenCompare(t, "flat_golden_trace.jsonl", goldenTrace(t, rec))
	}
}

// TestSpansArmedIsInert proves the span instrumentation is a pure
// observer. The golden fixtures are recorded with spans armed; a
// fixed-seed run with spans disarmed must reproduce the flat partition
// byte-for-byte and emit no event (a disarmed scope carries no sink:
// events need armed spans).
func TestSpansArmedIsInert(t *testing.T) {
	res, rec := goldenSearch(t, kway.Options{})
	goldenCompare(t, "flat_golden_result.txt", goldenRender(t, res))
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("disarmed run emitted %d events", n)
	}
}

// TestPhaseDurationsAreSpanDurations proves the spans are the only
// phase clock: on a run that exercises every engine phase (search,
// fold, verify, coarsen, uncoarsen), each KindPhase event carries the
// duration of the recorded span of the same name and attempt, and each
// phase has exactly as many events as spans.
func TestPhaseDurationsAreSpanDurations(t *testing.T) {
	tracer := span.NewTracer(span.Options{Process: "kway-test", Now: goldenClock(), Origin: 1})
	scope := tracer.Root(span.DeriveTraceID("phases", 11, 6), 0)
	_, rec := goldenRun(t, kway.Options{Spans: scope, Verify: true, Multilevel: true, MultilevelMinCells: 128})
	spans, dropped := tracer.Collector().Trace(scope.TraceID())
	if dropped != 0 {
		t.Fatalf("collector dropped %d spans", dropped)
	}
	type key struct {
		name    string
		attempt int
	}
	spanDurs := make(map[key][]time.Duration)
	spanCount := make(map[string]int)
	for _, s := range spans {
		k := key{s.Name, s.Attempt}
		spanDurs[k] = append(spanDurs[k], s.Dur)
		spanCount[s.Name]++
	}
	phaseDurs := make(map[key][]time.Duration)
	phaseCount := make(map[string]int)
	for _, e := range rec.Filter(trace.KindPhase) {
		k := key{e.Phase, e.Attempt}
		phaseDurs[k] = append(phaseDurs[k], e.Dur)
		phaseCount[e.Phase]++
	}
	// Each phase event is emitted right after its span ends, so within
	// one attempt the two sequences arrive in the same order.
	for k, durs := range phaseDurs {
		if !reflect.DeepEqual(durs, spanDurs[k]) {
			t.Fatalf("%s phase durations of attempt %d = %v, span durations %v", k.name, k.attempt, durs, spanDurs[k])
		}
	}
	for _, phase := range []string{trace.PhaseSearch, trace.PhaseFold, trace.PhaseVerify, trace.PhaseCoarsen, trace.PhaseUncoarsen} {
		if phaseCount[phase] == 0 || phaseCount[phase] != spanCount[phase] {
			t.Fatalf("%s: %d phase events, %d spans", phase, phaseCount[phase], spanCount[phase])
		}
	}
}
