package main

import (
	"strings"
	"testing"
	"time"

	"fpgapart/internal/span"
)

// buildTrace records a small two-process span tree and exports it as
// Chrome trace JSON, the way kpart -trace-out does.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	now := time.Unix(100, 0)
	clock := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	tr := span.NewTracer(span.Options{Process: "kpart", Now: clock, Origin: 7})
	tid := span.DeriveTraceID("cli", 1, 4)
	job := tr.Root(tid, 0).Start("job", -1)
	search := job.Scope().Start("search", -1)
	for i := 0; i < 2; i++ {
		att := search.Scope().Start("attempt", i)
		pass := att.Scope().Start("fm-pass", i)
		pass.End()
		att.End()
	}
	search.End()
	job.End()
	// A foreign process's span, as the coordinator would ingest it.
	worker := span.NewTracer(span.Options{Process: "kpartd", Now: clock, Origin: 9})
	wjob := worker.Root(tid, job.SpanID()).Start("job", -1)
	wjob.End()
	wspans, _ := worker.Collector().Trace(tid)
	tr.Ingest(tid, wspans)

	spans, _ := tr.Collector().Trace(tid)
	var sb strings.Builder
	if err := span.WriteChromeTrace(&sb, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return []byte(sb.String())
}

func TestRenderFlameSummary(t *testing.T) {
	data := buildTrace(t)
	var out strings.Builder
	if err := render(&out, data, 0); err != nil {
		t.Fatalf("render: %v", err)
	}
	got := out.String()
	for _, want := range []string{"2 process(es)", "7 spans", "fm-pass", "attempt", "kpart", "kpartd"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	// Self-time accounting: "job" spent most of its time in "search",
	// so its self-time must be smaller than its total. The table
	// renders both columns; spot-check the search row exists at all
	// and the header is present.
	if !strings.Contains(got, "Self") || !strings.Contains(got, "Total") {
		t.Errorf("missing summary columns:\n%s", got)
	}
}

func TestRenderTopK(t *testing.T) {
	data := buildTrace(t)
	var out strings.Builder
	if err := render(&out, data, 1); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(out.String(), "more span name(s)") {
		t.Errorf("top-1 summary should note truncation:\n%s", out.String())
	}
}

func TestRenderRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [`,
		"array form":      `[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]`,
		"no events":       `{"displayTimeUnit":"ms","traceEvents":[]}`,
		"unmatched E":     `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"E","ts":5,"pid":1,"tid":1}]}`,
		"unclosed B":      `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`,
		"mismatched pair": `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"B","ts":0,"pid":1,"tid":1},{"name":"y","ph":"E","ts":5,"pid":1,"tid":1}]}`,
		"negative dur":    `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"B","ts":9,"pid":1,"tid":1},{"name":"x","ph":"E","ts":5,"pid":1,"tid":1}]}`,
		"bad phase":       `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
	}
	for name, body := range cases {
		var out strings.Builder
		if err := render(&out, []byte(body), 0); err == nil {
			t.Errorf("%s: malformed trace accepted", name)
		}
	}
}
