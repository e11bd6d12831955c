package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestJSONLWellFormed(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	events := []Event{
		{Kind: KindFMPass, Attempt: 2, Pass: 1, Moves: 40, Cut: 12},
		{Kind: KindCarveAccepted, Attempt: 2, Area: 64, Terminals: 30, Moves: 40, Pass: 3, Replicas: 2, Rollbacks: 1, Device: "XC3042"},
		{Kind: KindCarveRejected, Attempt: 0, Area: 80, Terminals: 99, Reason: "terminals", Device: "XC3020"},
		{Kind: KindSolution, Attempt: 0, Feasible: true, Cost: 756.5, Parts: 4, Improved: true},
		{Kind: KindSolution, Attempt: 1, Feasible: false, Reason: "no feasible carve"},
	}
	for _, e := range events {
		j.Event(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(events), buf.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, ln)
		}
		if m["event"] != events[i].Kind.String() {
			t.Fatalf("line %d event tag %v, want %v", i, m["event"], events[i].Kind.String())
		}
		if int(m["attempt"].(float64)) != events[i].Attempt {
			t.Fatalf("line %d attempt %v, want %d", i, m["attempt"], events[i].Attempt)
		}
	}
	// Spot-check typed fields survive the hand-rolled encoder.
	var sol map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &sol); err != nil {
		t.Fatal(err)
	}
	if sol["cost"].(float64) != 756.5 || sol["improved"] != true {
		t.Fatalf("solution line mangled: %v", sol)
	}
	var rej map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &rej); err != nil {
		t.Fatal(err)
	}
	if rej["reason"] != "terminals" || rej["device"] != "XC3020" {
		t.Fatalf("rejection line mangled: %v", rej)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, bytes.ErrTooLarge
}

func TestJSONLStopsOnWriteError(t *testing.T) {
	w := &failWriter{}
	j := NewJSONL(w)
	j.Event(Event{Kind: KindFMPass})
	j.Event(Event{Kind: KindFMPass})
	if j.Err() == nil {
		t.Fatal("expected write error")
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times after error, want 1", w.n)
	}
}

func TestMulti(t *testing.T) {
	var a, b Recorder
	s := Multi(nil, &a, nil, &b)
	s.Event(Event{Kind: KindSolution})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi sink dropped events")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi should collapse to nil for the fast path")
	}
	if Multi(&a) != Sink(&a) {
		t.Fatal("single-sink Multi should return the sink itself")
	}
}

// orderSink appends its tag to a shared log on every event, recording
// the fan-out order across sinks.
type orderSink struct {
	tag string
	log *[]string
}

func (s orderSink) Event(Event) { *s.log = append(*s.log, s.tag) }

func TestMultiFanOutOrder(t *testing.T) {
	// Every event must reach the sinks in registration order.
	var log []string
	s := Multi(orderSink{"a", &log}, nil, orderSink{"b", &log}, orderSink{"c", &log})
	s.Event(Event{Kind: KindFMPass})
	s.Event(Event{Kind: KindSolution})
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(log) != len(want) {
		t.Fatalf("fan-out log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fan-out order %v, want %v", log, want)
		}
	}
}

func TestMultiCollapse(t *testing.T) {
	if Multi() != nil {
		t.Fatal("empty Multi should collapse to nil")
	}
	if Multi(nil) != nil {
		t.Fatal("single-nil Multi should collapse to nil")
	}
	var r Recorder
	// Nil sinks are dropped before the arity check, so nil-padded single
	// sinks still take the direct (non-fanout) path.
	if Multi(nil, &r, nil) != Sink(&r) {
		t.Fatal("nil-padded single-sink Multi should return the sink itself")
	}
}

func TestJSONLPhaseEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event(Event{Kind: KindPhase, Attempt: -1, Phase: PhaseSearch, Dur: 1500000})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("phase line not valid JSON: %v\n%s", err, buf.String())
	}
	if m["event"] != "phase" || m["phase"] != PhaseSearch || m["dur_ns"].(float64) != 1.5e6 {
		t.Fatalf("phase line mangled: %v", m)
	}
	if int(m["attempt"].(float64)) != -1 {
		t.Fatalf("attempt %v, want -1", m["attempt"])
	}
	if _, ok := m["level"]; ok {
		t.Fatalf("a search phase line carries a level: %s", buf.String())
	}
	// A coarsen phase reports its narrowed levels, 0 included.
	for _, narrowed := range []int{0, 3} {
		buf.Reset()
		j.Event(Event{Kind: KindPhase, Phase: PhaseCoarsen, Level: narrowed, Dur: 1000})
		want := fmt.Sprintf(`{"event":"phase","attempt":0,"phase":"coarsen","level":%d,"dur_ns":1000}`+"\n", narrowed)
		if buf.String() != want {
			t.Fatalf("coarsen phase line %q, want %q", buf.String(), want)
		}
	}
}

func TestRecorderFilter(t *testing.T) {
	var r Recorder
	r.Event(Event{Kind: KindFMPass})
	r.Event(Event{Kind: KindSolution, Attempt: 1})
	r.Event(Event{Kind: KindSolution, Attempt: 2})
	sols := r.Filter(KindSolution)
	if len(sols) != 2 || sols[0].Attempt != 1 || sols[1].Attempt != 2 {
		t.Fatalf("filter returned %+v", sols)
	}
	if got := r.Filter(KindPhase); len(got) != 0 {
		t.Fatalf("filter of absent kind returned %+v", got)
	}
	// Filter returns copies in arrival order without consuming them.
	if again := r.Filter(KindSolution); len(again) != 2 {
		t.Fatalf("second filter returned %+v", again)
	}
}

func TestJSONLSteadyStateAllocFree(t *testing.T) {
	j := NewJSONL(new(bytes.Buffer))
	e := Event{Kind: KindCarveAccepted, Attempt: 3, Area: 64, Terminals: 12, Device: "XC3042"}
	j.Event(e) // warm the buffer
	if avg := testing.AllocsPerRun(100, func() { j.Event(e) }); avg > 1 {
		t.Fatalf("JSONL.Event allocates %v times at steady state", avg)
	}
}
