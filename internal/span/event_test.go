package span

import (
	"context"
	"testing"

	"fpgapart/internal/trace"
)

// A sink attached with WithSink reaches every scope derived from it:
// child spans, and scopes carried through a context.
func TestSinkIsInherited(t *testing.T) {
	tr := testTracer()
	var rec trace.Recorder
	root := tr.Root(DeriveTraceID("job", 1, 1), 0).WithSink(&rec)
	att := root.Start("attempt", 2)
	ctx := NewContext(context.Background(), att.Scope())
	FromContext(ctx).Event(trace.Event{Kind: trace.KindCarveAccepted, Attempt: 2})
	pass := FromContext(ctx).Start("fm-pass", 2).Scope().Start("parfm-pass", 2)
	pass.EndEvent(trace.Event{Kind: trace.KindFMPass, Pass: 1})
	att.End()
	if got := len(rec.Events()); got != 2 {
		t.Fatalf("recorded %d events, want 2", got)
	}
	// WithSink(nil) drops the sink for the derived scopes only.
	att.Scope().WithSink(nil).Event(trace.Event{Kind: trace.KindCarveAccepted})
	att.Scope().Event(trace.Event{Kind: trace.KindCarveAccepted})
	if got := len(rec.Events()); got != 3 {
		t.Fatalf("recorded %d events, want 3 (the sink-less scope must drop its event)", got)
	}
}

// A disarmed scope carries no sink: events need armed spans.
func TestDisarmedScopeDropsSink(t *testing.T) {
	var rec trace.Recorder
	s := Scope{}.WithSink(&rec)
	s.Event(trace.Event{Kind: trace.KindSolution})
	s.Start("level", 0).EndEvent(trace.Event{Kind: trace.KindLevel})
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("disarmed scope emitted %d events", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Start("fm-pass", 0).EndEvent(trace.Event{Kind: trace.KindFMPass})
	}); allocs != 0 {
		t.Fatalf("disarmed EndEvent allocated %v times per run, want 0", allocs)
	}
}

// EndEvent labels the event with the span's attempt and gives a phase
// event the span's duration; other kinds keep Dur as sent.
func TestEndEventFillsAttemptAndPhaseDuration(t *testing.T) {
	tr := testTracer()
	var rec trace.Recorder
	tid := DeriveTraceID("job", 1, 2)
	scope := tr.Root(tid, 0).WithSink(&rec)
	scope.Start("fold", 4).EndEvent(trace.Event{Kind: trace.KindPhase, Attempt: 9, Phase: trace.PhaseFold})
	scope.Start("level", 5).EndEvent(trace.Event{Kind: trace.KindLevel, Level: 1})
	spans, _ := tr.Collector().Trace(tid)
	events := rec.Events()
	if len(spans) != 2 || len(events) != 2 {
		t.Fatalf("%d spans and %d events, want 2 and 2", len(spans), len(events))
	}
	if e := events[0]; e.Attempt != 4 || e.Dur != spans[0].Dur || e.Dur <= 0 {
		t.Fatalf("phase event %+v, want attempt 4 and the span's duration %v", e, spans[0].Dur)
	}
	if e := events[1]; e.Attempt != 5 || e.Dur != 0 || e.Level != 1 {
		t.Fatalf("level event %+v, want attempt 5, no duration, level 1", e)
	}
}

// Ingest files only spans of the trace the request belongs to: a
// worker response naming other traces cannot plant spans there.
func TestIngestDropsForeignTraces(t *testing.T) {
	tr := NewTracer(Options{Process: "coord", Origin: 1, MaxTraces: 2})
	own, other := DeriveTraceID("job", 1, 1), DeriveTraceID("job", 2, 1)
	tr.Ingest(own, []Span{
		{Trace: own, ID: 1, Name: "job"},
		{Trace: other, ID: 2, Name: "job"},
		{Trace: own, ID: 0, Name: "no-id"},
	})
	if spans, _ := tr.Collector().Trace(own); len(spans) != 1 || spans[0].ID != 1 {
		t.Fatalf("own trace holds %+v, want the one valid span", spans)
	}
	if spans, _ := tr.Collector().Trace(other); spans != nil {
		t.Fatalf("foreign trace was ingested: %+v", spans)
	}
	tr.Ingest(TraceID{}, []Span{{ID: 3}})
	if spans, _ := tr.Collector().Trace(TraceID{}); spans != nil {
		t.Fatal("spans of the zero trace were ingested")
	}
}
