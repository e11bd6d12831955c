package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances 1ms per reading, like the kway golden clock.
func fakeClock() func() time.Time {
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

func testTracer() *Tracer {
	return NewTracer(Options{Process: "test", Now: fakeClock(), Origin: 0xabc})
}

func TestIDWireForm(t *testing.T) {
	tr := testTracer()
	id := tr.nextID()
	if id == 0 {
		t.Fatal("first ID must be non-zero")
	}
	if got := id.String(); len(got) != 16 {
		t.Fatalf("ID wire form %q not 16 hex digits", got)
	}
	var back ID
	if err := back.UnmarshalText([]byte(id.String())); err != nil || back != id {
		t.Fatalf("ID round trip: got %v err %v, want %v", back, err, id)
	}
	tid := DeriveTraceID("job", 11, 6)
	var tback TraceID
	if err := tback.UnmarshalText([]byte(tid.String())); err != nil || tback != tid {
		t.Fatalf("TraceID round trip: got %v err %v, want %v", tback, err, tid)
	}
}

func TestDeriveTraceIDStable(t *testing.T) {
	a := DeriveTraceID("cli", 11, 50)
	b := DeriveTraceID("cli", 11, 50)
	if a != b {
		t.Fatal("DeriveTraceID must be deterministic")
	}
	if a.IsZero() {
		t.Fatal("derived trace id must be non-zero")
	}
	if a == DeriveTraceID("cli", 12, 50) || a == DeriveTraceID("cli", 11, 51) || a == DeriveTraceID("cl", 11, 50) {
		t.Fatal("derived trace id must depend on every identity component")
	}
}

func TestDisarmedScopeIsFreeAndInert(t *testing.T) {
	var s Scope
	if s.Enabled() {
		t.Fatal("zero Scope must be disarmed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		run := s.Start("fm-pass", 3)
		run.Detail("x")
		run.End()
	})
	if allocs != 0 {
		t.Fatalf("disarmed Start/End allocated %v times per run, want 0", allocs)
	}
	if got := s.Traceparent(); got != "" {
		t.Fatalf("disarmed Traceparent = %q, want empty", got)
	}
	if s.Start("x", 0).Scope().Enabled() {
		t.Fatal("child of a disarmed scope must stay disarmed")
	}
}

func TestSpanTreeParenting(t *testing.T) {
	tr := testTracer()
	trace := DeriveTraceID("job", 1, 2)
	root := tr.Root(trace, 0)
	job := root.Start("job", -1)
	att := job.Scope().Start("attempt", 0)
	pass := att.Scope().Start("fm-pass", 0)
	pass.End()
	att.End()
	job.End()

	spans, dropped := tr.Collector().Trace(trace)
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("got %d spans (%d dropped), want 3/0", len(spans), dropped)
	}
	roots := Tree(spans)
	if len(roots) != 1 || roots[0].Name != "job" {
		t.Fatalf("tree roots = %+v, want single job root", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "attempt" {
		t.Fatalf("job children = %+v, want [attempt]", roots[0].Children)
	}
	if got := roots[0].Children[0].Children[0].Name; got != "fm-pass" {
		t.Fatalf("attempt child = %q, want fm-pass", got)
	}
	if roots[0].Dur <= 0 {
		t.Fatal("completed span must have positive duration under the fake clock")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := testTracer()
	trace := DeriveTraceID("job", 7, 3)
	rpc := tr.Root(trace, 0).Start("rpc", 2)
	h := rpc.Scope().Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("traceparent %q malformed", h)
	}
	gotTrace, gotParent, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotParent != rpc.SpanID() {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v", h, gotTrace, gotParent, ok)
	}
	rpc.End()

	for _, bad := range []string{
		"",
		"00-0000000000000000000000000000000-0000000000000001-01",
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01", // zero trace
		"00-" + trace.String() + "-0000000000000000-01",          // zero parent
		"ff-" + trace.String() + "-0000000000000001-01",          // forbidden version
		"00_" + trace.String() + "-0000000000000001-01",
		"00-" + trace.String() + "-0000000000000001-zz",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent accepted %q", bad)
		}
	}
}

func TestCrossProcessStitching(t *testing.T) {
	trace := DeriveTraceID("job", 1, 1)
	coordTr := NewTracer(Options{Process: "coord", Now: fakeClock(), Origin: 1})
	workTr := NewTracer(Options{Process: "worker", Now: fakeClock(), Origin: 2})

	job := coordTr.Root(trace, 0).Start("job", -1)
	rpc := job.Scope().Start("rpc", 0)
	h := rpc.Scope().Traceparent()

	// Worker side: parse the header, run its own job span, return the
	// subtree as the response payload.
	wt, wp, ok := ParseTraceparent(h)
	if !ok {
		t.Fatal("worker failed to parse traceparent")
	}
	wjob := workTr.Root(wt, wp).Start("job", 0)
	wpass := wjob.Scope().Start("fm-pass", 0)
	wpass.End()
	wjob.End()
	payload := workTr.Collector().Subtree(wt, wjob.SpanID())
	if len(payload) != 2 {
		t.Fatalf("worker subtree has %d spans, want 2", len(payload))
	}

	coordTr.Ingest(trace, payload)
	rpc.End()
	job.End()

	spans, _ := coordTr.Collector().Trace(trace)
	roots := Tree(spans)
	if len(roots) != 1 {
		t.Fatalf("stitched trace has %d roots, want 1", len(roots))
	}
	procs := map[string]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		procs[n.Process] = true
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(roots[0])
	if !procs["coord"] || !procs["worker"] {
		t.Fatalf("stitched tree spans processes %v, want both coord and worker", procs)
	}
	// Worker ingests must not leak into the coordinator's flight ring.
	flight, _ := coordTr.Flight().Snapshot()
	for _, sp := range flight {
		if sp.Process != "coord" {
			t.Fatalf("foreign span %+v in coordinator flight recorder", sp)
		}
	}
}

func TestSubtreeIsolatesRequests(t *testing.T) {
	tr := testTracer()
	trace := DeriveTraceID("job", 1, 4)
	// Two requests of the same trace on one worker: each subtree must
	// contain only its own spans.
	a := tr.Root(trace, 0).Start("job", 0)
	ap := a.Scope().Start("fm-pass", 0)
	ap.End()
	a.End()
	b := tr.Root(trace, 0).Start("job", 1)
	bp := b.Scope().Start("fm-pass", 1)
	bp.End()
	b.End()
	sub := tr.Collector().Subtree(trace, b.SpanID())
	if len(sub) != 2 {
		t.Fatalf("subtree has %d spans, want 2", len(sub))
	}
	for _, sp := range sub {
		if sp.Attempt != 1 {
			t.Fatalf("subtree leaked span %+v from the other request", sp)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(Span{Name: fmt.Sprintf("s%d", i)})
	}
	got, total := f.Snapshot()
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, sp := range got {
		if want := fmt.Sprintf("s%d", 6+i); sp.Name != want {
			t.Fatalf("ring[%d] = %q, want %q (oldest-first)", i, sp.Name, want)
		}
	}
}

func TestCollectorBounds(t *testing.T) {
	c := NewCollector(2, 3)
	mk := func(b byte) TraceID { var t TraceID; t[0] = b; return t }
	for i := 0; i < 5; i++ {
		c.Record(Span{Trace: mk(1), ID: ID(i + 1)})
	}
	spans, dropped := c.Trace(mk(1))
	if len(spans) != 3 || dropped != 2 {
		t.Fatalf("per-trace bound: %d spans %d dropped, want 3/2", len(spans), dropped)
	}
	c.Record(Span{Trace: mk(2), ID: 1})
	c.Record(Span{Trace: mk(3), ID: 1}) // evicts trace 1
	if spans, _ := c.Trace(mk(1)); spans != nil {
		t.Fatal("oldest trace must be evicted at the MaxTraces bound")
	}
	if spans, _ := c.Trace(mk(3)); len(spans) != 1 {
		t.Fatal("newest trace missing after eviction")
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := testTracer()
	trace := DeriveTraceID("cli", 11, 6)
	job := tr.Root(trace, 0).Start("job", -1)
	att := job.Scope().Start("attempt", 0)
	pass := att.Scope().Start("fm-pass", 0)
	pass.End()
	att.End()
	job.End()
	spans, _ := tr.Collector().Trace(trace)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", ct.DisplayTimeUnit)
	}
	// Every (pid,tid) stream must be a balanced, properly nested B/E
	// sequence, and metadata must name the process.
	depth := map[[2]int]int{}
	sawProc := false
	for _, e := range ct.TraceEvents {
		k := [2]int{e.PID, e.TID}
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("unbalanced E for %v", k)
			}
		case "M":
			if e.Name == "process_name" && e.Args["name"] == "test" {
				sawProc = true
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("stream %v left %d open spans", k, d)
		}
	}
	if !sawProc {
		t.Fatal("missing process_name metadata")
	}
	// The engine-level job span must render on tid 0, attempts on i+1.
	for _, e := range ct.TraceEvents {
		if e.Ph == "B" && e.Name == "job" && e.TID != 0 {
			t.Fatalf("job span tid = %d, want 0", e.TID)
		}
		if e.Ph == "B" && e.Name == "attempt" && e.TID != 1 {
			t.Fatalf("attempt 0 span tid = %d, want 1", e.TID)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := NewTracer(Options{Process: "race", Origin: 7})
	trace := DeriveTraceID("race", 0, 0)
	root := tr.Root(trace, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				run := root.Start("s", w)
				run.End()
			}
		}(w)
	}
	wg.Wait()
	spans, _ := tr.Collector().Trace(trace)
	if len(spans) != 800 {
		t.Fatalf("recorded %d spans, want 800", len(spans))
	}
	seen := map[ID]bool{}
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %v", sp.ID)
		}
		seen[sp.ID] = true
	}
}
