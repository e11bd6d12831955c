// Package span is the engines' one observability handle: a causal
// tree of timed spans — job → search attempt → V-cycle level →
// FM/parfm pass → coordinator RPC — stitched across processes by W3C
// traceparent propagation, which also carries the engine's event
// stream (internal/trace).
//
// The design mirrors the repo's observability contract (DESIGN.md
// §17): tracing never feeds search decisions (fixed-seed results are
// byte-identical armed or disarmed, pinned by the kway golden diff),
// and the disarmed hot path is a single predicted branch with zero
// allocations (pinned by TestFMPassAllocs variants). A Scope is a
// small value; its zero value is disarmed, so engine configs embed
// one without any pointer plumbing.
//
// Events ride on the scope. Scope.WithSink attaches a trace.Sink, and
// every scope derived from it (child spans, NewContext/FromContext)
// inherits the sink. Point events (carve, solution, checkpoint,
// parfm-round) are sent with Scope.Event; timed work (an FM pass, a
// V-cycle level, a phase, a resume) sends its event from
// Running.EndEvent, which ends the span that timed it. The one rule:
// events need armed spans — a disarmed scope carries no sink, so it
// emits nothing.
//
// Each process owns one Tracer. Completed spans land in two bounded
// sinks: a FlightRecorder ring holding the last N spans of this
// process (served by GET /debug/flightrecorder), and a Collector
// keyed by TraceID (served by GET /debug/trace/{job}). Foreign spans
// returned by worker daemons are merged with Tracer.Ingest, which
// feeds only the Collector — the flight recorder stays per-process.
package span

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/trace"
)

// TraceID identifies one logical job across every process that works
// on it, in W3C trace-context form (16 bytes, hex-encoded on the
// wire). The all-zero value is invalid.
type TraceID [16]byte

// String returns the 32-hex-digit wire form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether t is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// MarshalText implements encoding.TextMarshaler (hex).
func (t TraceID) MarshalText() ([]byte, error) {
	b := make([]byte, 32)
	hex.Encode(b, t[:])
	return b, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) != 32 {
		return fmt.Errorf("span: trace id must be 32 hex digits, got %d", len(b))
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// ID identifies one span within a trace (8 bytes on the wire). IDs
// are unique across the processes of one trace: the top 24 bits are a
// per-tracer origin (random by default, injectable for tests) and the
// low 40 bits a process-local counter starting at 1, so 0 never
// occurs and doubles as "no parent".
type ID uint64

// String returns the 16-hex-digit wire form.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalText implements encoding.TextMarshaler (hex).
func (id ID) MarshalText() ([]byte, error) {
	return []byte(id.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("span: span id must be 16 hex digits, got %d", len(b))
	}
	var raw [8]byte
	if _, err := hex.Decode(raw[:], b); err != nil {
		return err
	}
	*id = ID(binary.BigEndian.Uint64(raw[:]))
	return nil
}

// Span is one completed timed operation. Spans form a tree through
// Parent; spans of different processes join one tree when the child
// process was handed its parent's scope via a traceparent header.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      ID      `json:"id"`
	Parent  ID      `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Process string  `json:"process"`
	// Attempt labels the search attempt the span belongs to (-1 for
	// engine-level work outside any attempt), mirroring trace.Event.
	Attempt int           `json:"attempt"`
	Detail  string        `json:"detail,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
}

// Options configures a Tracer. The zero value is usable.
type Options struct {
	// Process names the owning process in every span (e.g. "kpartd",
	// "kpart"). Defaults to "proc".
	Process string
	// Now supplies the clock (nil = time.Now). Clock readings feed
	// only spans, never search decisions.
	Now func() time.Time
	// Origin seeds the top 24 bits of every span ID minted by this
	// tracer (0 = crypto/rand). Fix it in tests for stable IDs.
	Origin uint64
	// MaxTraces bounds the number of distinct traces the collector
	// retains, oldest-first eviction (default 64).
	MaxTraces int
	// MaxSpansPerTrace bounds one trace's retained spans; the
	// overflow is counted, not silently lost (default 8192).
	MaxSpansPerTrace int
}

// flightSize bounds every tracer's flight-recorder ring.
const flightSize = 256

// Tracer mints span IDs and routes completed spans to the process's
// flight recorder and trace collector. Safe for concurrent use.
type Tracer struct {
	process string
	now     func() time.Time
	origin  uint64
	seq     atomic.Uint64
	col     *Collector
	flight  *FlightRecorder
}

// NewTracer builds an armed tracer with its own Collector and
// FlightRecorder.
func NewTracer(o Options) *Tracer {
	if o.Process == "" {
		o.Process = "proc"
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Origin == 0 {
		var b [3]byte
		if _, err := rand.Read(b[:]); err == nil {
			o.Origin = uint64(b[0])<<16 | uint64(b[1])<<8 | uint64(b[2])
		} else {
			// Degraded but functional: the counter alone still yields
			// unique IDs within this process.
			o.Origin = 1
		}
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = 64
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 8192
	}
	return &Tracer{
		process: o.Process,
		now:     o.Now,
		origin:  o.Origin & 0xffffff,
		col:     NewCollector(o.MaxTraces, o.MaxSpansPerTrace),
		flight:  NewFlightRecorder(flightSize),
	}
}

// Process returns the tracer's process name.
func (t *Tracer) Process() string { return t.process }

// Collector returns the tracer's trace collector.
func (t *Tracer) Collector() *Collector { return t.col }

// Flight returns the tracer's flight recorder.
func (t *Tracer) Flight() *FlightRecorder { return t.flight }

// Ingest merges spans recorded by another process (a worker daemon's
// response to a request of trace id) into the collector. Spans of any
// other trace are dropped, so a stale or buggy response cannot plant
// spans in other traces or evict them from the bounded collector. The
// flight recorder is untouched: it holds only this process's spans.
func (t *Tracer) Ingest(id TraceID, spans []Span) {
	for _, sp := range spans {
		if id.IsZero() || sp.Trace != id || sp.ID == 0 {
			continue
		}
		t.col.Record(sp)
	}
}

// Root returns an armed scope for trace id whose child spans parent
// under parent (0 = they become roots of the trace).
func (t *Tracer) Root(trace TraceID, parent ID) Scope {
	return Scope{t: t, trace: trace, parent: parent}
}

func (t *Tracer) nextID() ID {
	return ID(t.origin<<40 | t.seq.Add(1)&(1<<40-1))
}

func (t *Tracer) record(sp Span) {
	t.flight.Record(sp)
	t.col.Record(sp)
}

// Scope is a position in a trace: spans started from it become
// children of the scope's parent span, and events sent on it go to its
// sink. The zero value is disarmed — Start is a single branch
// returning a no-op Running and there is no sink — so engine configs
// embed a Scope without nil checks or pointer plumbing.
type Scope struct {
	t      *Tracer
	trace  TraceID
	parent ID
	sink   trace.Sink
}

// Enabled reports whether spans started from this scope are recorded.
func (s Scope) Enabled() bool { return s.t != nil }

// WithSink returns the scope with its events sent to k (nil drops
// them). Scopes derived from the result inherit k. A disarmed scope
// stays disarmed and sink-less: events need armed spans.
func (s Scope) WithSink(k trace.Sink) Scope {
	if s.t != nil {
		s.sink = k
	}
	return s
}

// Event sends a point event to the scope's sink, if it has one.
func (s Scope) Event(e trace.Event) {
	if s.sink != nil {
		s.sink.Event(e)
	}
}

// Tracer returns the owning tracer (nil when disarmed).
func (s Scope) Tracer() *Tracer { return s.t }

// TraceID returns the scope's trace (zero when disarmed).
func (s Scope) TraceID() TraceID { return s.trace }

// Start begins a span. On a disarmed scope it returns a no-op
// Running without reading the clock or allocating.
func (s Scope) Start(name string, attempt int) Running {
	if s.t == nil {
		return Running{}
	}
	return Running{t: s.t, sink: s.sink, sp: Span{
		Trace:   s.trace,
		ID:      s.t.nextID(),
		Parent:  s.parent,
		Name:    name,
		Process: s.t.process,
		Attempt: attempt,
		Start:   s.t.now(),
	}}
}

// Traceparent renders the scope as a W3C trace-context header value
// ("00-<trace>-<parent>-01"), or "" when the scope is disarmed or has
// no parent span to propagate.
func (s Scope) Traceparent() string {
	if s.t == nil || s.parent == 0 || s.trace.IsZero() {
		return ""
	}
	return "00-" + s.trace.String() + "-" + s.parent.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any version except "ff" and ignores the trace-flags octet.
func ParseTraceparent(h string) (TraceID, ID, bool) {
	var tid TraceID
	var sid ID
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, 0, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[:2])); err != nil || ver[0] == 0xff {
		return tid, 0, false
	}
	if err := tid.UnmarshalText([]byte(h[3:35])); err != nil || tid.IsZero() {
		return TraceID{}, 0, false
	}
	if err := sid.UnmarshalText([]byte(h[36:52])); err != nil || sid == 0 {
		return TraceID{}, 0, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:])); err != nil {
		return TraceID{}, 0, false
	}
	return tid, sid, true
}

// DeriveTraceID maps a search's durable identity — job ID plus the
// checkpoint identity (seed, solutions) — to a stable TraceID, so a
// crash-recovered or resumed run lands its spans in the same trace as
// the original attempt.
func DeriveTraceID(job string, seed int64, solutions int) TraceID {
	h := sha256.New()
	fmt.Fprintf(h, "fpgapart-span-v1\x00%s\x00%d\x00%d", job, seed, solutions)
	var t TraceID
	copy(t[:], h.Sum(nil))
	if t.IsZero() {
		t[15] = 1
	}
	return t
}

// Running is an in-flight span, returned by value so the armed path
// stays off the heap. End is a no-op on the zero value.
type Running struct {
	t    *Tracer
	sink trace.Sink
	sp   Span
}

// Scope returns the child scope: spans started from it parent under
// this span, and it carries the starting scope's sink. Disarmed when
// the Running is the no-op zero value.
func (r Running) Scope() Scope {
	if r.t == nil {
		return Scope{}
	}
	return Scope{t: r.t, trace: r.sp.Trace, parent: r.sp.ID, sink: r.sink}
}

// SpanID returns the in-flight span's ID (0 when disarmed).
func (r Running) SpanID() ID { return r.sp.ID }

// Detail attaches a free-form "k=v k=v" annotation.
func (r *Running) Detail(d string) {
	if r.t != nil {
		r.sp.Detail = d
	}
}

// End completes the span, records it and returns its duration. The
// disarmed zero value returns 0 without reading the clock.
func (r Running) End() time.Duration {
	if r.t == nil {
		return 0
	}
	r.sp.Dur = r.t.now().Sub(r.sp.Start)
	r.t.record(r.sp)
	return r.sp.Dur
}

// EndEvent ends the span like End and sends e, the event of the work
// the span timed, to the starting scope's sink: Attempt is set to the
// span's attempt and, for a KindPhase event, Dur to its duration. With
// no sink (or disarmed) it is End.
func (r Running) EndEvent(e trace.Event) {
	d := r.End()
	if r.sink == nil {
		return
	}
	e.Attempt = r.sp.Attempt
	if e.Kind == trace.KindPhase {
		e.Dur = d
	}
	r.sink.Event(e)
}

// FlightRecorder is a bounded ring of the last N completed spans of
// this process — always-on, fixed memory, no per-record allocation
// once warm. Safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64
}

// NewFlightRecorder builds a ring holding n spans (n >= 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{ring: make([]Span, 0, n)}
}

// Record adds a completed span, evicting the oldest when full.
func (f *FlightRecorder) Record(sp Span) {
	f.mu.Lock()
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, sp)
	} else {
		f.ring[f.next] = sp
		f.next = (f.next + 1) % cap(f.ring)
	}
	f.total++
	f.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first plus the total
// number ever recorded.
func (f *FlightRecorder) Snapshot() ([]Span, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Span, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out, f.total
}

// Collector retains completed spans grouped by trace, bounded on both
// axes: at most maxTraces distinct traces (oldest evicted first) and
// at most maxSpans spans per trace (the overflow is counted). Safe
// for concurrent use.
type Collector struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	order     []TraceID
	traces    map[TraceID]*traceBucket
}

type traceBucket struct {
	spans   []Span
	dropped int
}

// NewCollector builds a collector with the given bounds (values < 1
// default to 64 traces / 8192 spans).
func NewCollector(maxTraces, maxSpansPerTrace int) *Collector {
	if maxTraces < 1 {
		maxTraces = 64
	}
	if maxSpansPerTrace < 1 {
		maxSpansPerTrace = 8192
	}
	return &Collector{
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
		traces:    make(map[TraceID]*traceBucket),
	}
}

// Record adds one completed span to its trace's bucket.
func (c *Collector) Record(sp Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.traces[sp.Trace]
	if b == nil {
		if len(c.order) >= c.maxTraces {
			delete(c.traces, c.order[0])
			c.order = c.order[1:]
		}
		b = &traceBucket{}
		c.traces[sp.Trace] = b
		c.order = append(c.order, sp.Trace)
	}
	if len(b.spans) >= c.maxSpans {
		b.dropped++
		return
	}
	b.spans = append(b.spans, sp)
}

// Trace returns a copy of one trace's retained spans (recording
// order) and how many overflowed the per-trace bound.
func (c *Collector) Trace(id TraceID) ([]Span, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.traces[id]
	if b == nil {
		return nil, 0
	}
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	return out, b.dropped
}

// Subtree returns the spans of trace id that are root or descendants
// of root, in recording order. A worker daemon uses it to return
// exactly one request's spans even when several attempts of the same
// trace landed on it.
func (c *Collector) Subtree(id TraceID, root ID) []Span {
	spans, _ := c.Trace(id)
	if len(spans) == 0 {
		return nil
	}
	in := make(map[ID]bool, len(spans))
	in[root] = true
	// Spans are recorded at End, so a parent may be recorded after
	// its children (it ends last). Iterate to a fixed point; the tree
	// is shallow (job → attempt → level → pass), so this converges in
	// a handful of rounds.
	for changed := true; changed; {
		changed = false
		for i := range spans {
			if !in[spans[i].ID] && in[spans[i].Parent] {
				in[spans[i].ID] = true
				changed = true
			}
		}
	}
	out := make([]Span, 0, len(spans))
	for i := range spans {
		if in[spans[i].ID] {
			out = append(out, spans[i])
		}
	}
	return out
}
