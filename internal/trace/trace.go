// Package trace is the event vocabulary of the partitioning engines:
// one flat Event per unit of work and the sinks that consume them. The
// hot paths (kway's carve loop, the FM pass loop) emit behind a
// nil-check, so the zero-sink configuration costs a predicted branch
// and the enabled path allocates nothing either — events are
// stack-built value structs and the JSONL sink reuses one encode
// buffer under its mutex. Counting and histograms live in
// telemetry.Bridge, the one aggregating sink.
//
// Sinks must be safe for concurrent use: carve and FM-pass events are
// emitted by the search workers in completion order (each labeled with
// its solution attempt index), while solution events are emitted by
// the single-threaded index-ordered reduction, so their order is
// deterministic for a fixed seed.
//
// The engines do not hold a sink of their own: it rides on their
// internal/span scope (span.Scope.WithSink), and events need armed
// spans. Work a span times — an FM pass, a V-cycle level, a phase, a
// resume — emits its event when that span ends, so a KindPhase event
// carries the span's duration; the rest are point events on the
// scope. This package imports nothing internal.
package trace

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Kind discriminates events.
type Kind uint8

const (
	// KindCarveAccepted marks a carve attempt whose block satisfied its
	// host device; Area/Terminals/Device describe the carve,
	// Moves/Passes the FM work it took, Replicas/Rollbacks the
	// replication-state work.
	KindCarveAccepted Kind = iota + 1
	// KindCarveRejected marks a failed carve attempt; Reason is one of
	// the Reject* codes.
	KindCarveRejected
	// KindFMPass marks one completed FM pass: Moves applied before the
	// best-prefix rollback and Cut after it.
	KindFMPass
	// KindSolution marks one folded solution attempt of the k-way
	// search, in deterministic index order: Feasible/Cost/Parts
	// describe it, Improved whether it became the incumbent best.
	KindSolution
	// KindPhase marks the completion of one timed phase (Phase names
	// it, Dur is its duration). Engine phases and kpart's parse are
	// emitted by the end of the span that timed them; the daemon's
	// request parse, which no span covers, is timed by the server
	// clock. Durations feed only observability sinks — never
	// search decisions — so fixed-seed results are byte-identical with
	// or without phase tracing.
	KindPhase
	// KindLevel marks the completion of one uncoarsening level of the
	// multilevel V-cycle: Level is the hierarchy depth (0 = finest),
	// Cells the level's coarse cell count, Cut the cut after the
	// level's FM refinement, Area the block-0 area, Moves/Pass the FM
	// work the refinement took.
	KindLevel
	// KindParRound marks one synchronous sub-round of the parallel
	// refinement engine (internal/fm): Pass is the enclosing FM
	// pass, Round the sub-round index within it, Proposals the moves
	// proposed against the frozen state, Commits the proposals applied
	// and Stale the proposals rejected because an earlier commit of the
	// same sub-round invalidated their gain.
	KindParRound
	// KindCheckpoint marks one persisted search checkpoint, emitted by
	// the single-threaded index-ordered reducer: Folded is the number
	// of attempts the checkpoint covers, BestAttempt the incumbent best
	// attempt index (-1 while no attempt has been accepted). Checkpoint
	// emission never perturbs search decisions, so fixed-seed results
	// are byte-identical with or without checkpointing.
	KindCheckpoint
	// KindResume marks a search restarting from a persisted checkpoint
	// instead of attempt 0: Folded is the attempt index the resumed run
	// continues from (the JSONL field is resumed_from_attempt),
	// BestAttempt the restored incumbent's attempt index.
	KindResume
)

// Phase names carried by KindPhase events.
const (
	PhaseParse     = "parse"     // reading/parsing the input circuit
	PhaseSearch    = "search"    // the whole multi-start carve search
	PhaseVerify    = "verify"    // in-loop solution verification (per attempt)
	PhaseFold      = "fold"      // remap + assembly of one attempt's solution
	PhaseCoarsen   = "coarsen"   // building the multilevel cluster hierarchy
	PhaseUncoarsen = "uncoarsen" // projection + per-level refinement sweep
)

// Carve-rejection codes carried by KindCarveRejected events.
const (
	RejectNoDevice  = "no-device" // no library device can host the desired size
	RejectFM        = "fm"        // the carve bipartition failed
	RejectTerminals = "terminals" // the carved block needs more IOBs than the device has
)

// String returns the JSONL event-type tag.
func (k Kind) String() string {
	switch k {
	case KindCarveAccepted:
		return "carve"
	case KindCarveRejected:
		return "carve-rejected"
	case KindFMPass:
		return "fm-pass"
	case KindSolution:
		return "solution"
	case KindPhase:
		return "phase"
	case KindLevel:
		return "level"
	case KindParRound:
		return "parfm-round"
	case KindCheckpoint:
		return "checkpoint"
	case KindResume:
		return "resume"
	default:
		return "unknown"
	}
}

// Event is one observation. A single flat struct serves every kind so
// emitters build it on the stack; unused fields stay zero.
type Event struct {
	Kind Kind
	// Attempt is the solution attempt index the event belongs to
	// (-1 when the emitter runs outside a k-way search).
	Attempt int
	// FM fields.
	Pass  int
	Moves int
	Cut   int
	// Carve fields.
	Area      int
	Terminals int
	Replicas  int
	Rollbacks int
	Device    string
	Reason    string
	// Solution fields.
	Feasible bool
	Cost     float64
	Parts    int
	Improved bool
	// Topology fields (KindSolution): Topo is the solution's
	// hop-weighted interconnect on the armed board topology; HasTopo
	// marks it meaningful. Flat terminal-cut runs never set HasTopo,
	// so their serialized streams are byte-identical to pre-topology
	// releases.
	Topo    int
	HasTopo bool
	// Panic marks a failed solution attempt that died to a contained
	// worker panic (Reason carries the panic message); the run is
	// degraded but alive.
	Panic bool
	// Phase fields (KindPhase): the phase name and its duration.
	Phase string
	Dur   time.Duration
	// Level fields (KindLevel): the hierarchy depth (0 = finest) and
	// the level's coarse cell count. A coarsen KindPhase event carries
	// in Level the number of levels narrowed from the previous carve's
	// hierarchy, 0 for a fresh build.
	Level int
	Cells int
	// Parallel sub-round fields (KindParRound): the sub-round index
	// within the pass, and its proposal/commit/stale-rejection counts.
	Round     int
	Proposals int
	Commits   int
	Stale     int
	// Checkpoint/resume fields (KindCheckpoint, KindResume): Folded is
	// the number of attempts the persisted reduction covers (for
	// KindResume, the attempt index the resumed run continues from);
	// BestAttempt is the incumbent best attempt index, -1 = none.
	Folded      int
	BestAttempt int
}

// Sink receives events. Implementations must be safe for concurrent
// use; Event must not retain e past the call.
type Sink interface {
	Event(e Event)
}

// JSONL is a Sink that writes one JSON object per event. The encoder
// is hand-rolled over a reused buffer: one mutex-guarded Write per
// event, no reflection, no per-event allocation at steady state.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, buf: make([]byte, 0, 256)}
}

// Event implements Sink.
func (j *JSONL) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"event":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","attempt":`...)
	b = strconv.AppendInt(b, int64(e.Attempt), 10)
	switch e.Kind {
	case KindFMPass:
		b = appendIntField(b, "pass", e.Pass)
		b = appendIntField(b, "moves", e.Moves)
		b = appendIntField(b, "cut", e.Cut)
	case KindCarveAccepted, KindCarveRejected:
		b = appendIntField(b, "area", e.Area)
		b = appendIntField(b, "terminals", e.Terminals)
		b = appendIntField(b, "moves", e.Moves)
		b = appendIntField(b, "passes", e.Pass)
		b = appendIntField(b, "replicas", e.Replicas)
		b = appendIntField(b, "rollbacks", e.Rollbacks)
		if e.Device != "" {
			b = appendStringField(b, "device", e.Device)
		}
		if e.Reason != "" {
			b = appendStringField(b, "reason", e.Reason)
		}
	case KindSolution:
		b = append(b, `,"feasible":`...)
		b = strconv.AppendBool(b, e.Feasible)
		if e.Feasible {
			b = append(b, `,"cost":`...)
			b = strconv.AppendFloat(b, e.Cost, 'g', -1, 64)
			b = appendIntField(b, "parts", e.Parts)
			if e.HasTopo {
				b = appendIntField(b, "topo", e.Topo)
			}
			b = append(b, `,"improved":`...)
			b = strconv.AppendBool(b, e.Improved)
		} else {
			if e.Panic {
				b = append(b, `,"panic":true`...)
			}
			if e.Reason != "" {
				b = appendStringField(b, "reason", e.Reason)
			}
		}
	case KindPhase:
		b = appendStringField(b, "phase", e.Phase)
		if e.Phase == PhaseCoarsen {
			b = appendIntField(b, "level", e.Level)
		}
		b = append(b, `,"dur_ns":`...)
		b = strconv.AppendInt(b, int64(e.Dur), 10)
	case KindLevel:
		b = appendIntField(b, "level", e.Level)
		b = appendIntField(b, "cells", e.Cells)
		b = appendIntField(b, "area", e.Area)
		b = appendIntField(b, "cut", e.Cut)
		b = appendIntField(b, "moves", e.Moves)
		b = appendIntField(b, "passes", e.Pass)
	case KindParRound:
		b = appendIntField(b, "pass", e.Pass)
		b = appendIntField(b, "round", e.Round)
		b = appendIntField(b, "proposals", e.Proposals)
		b = appendIntField(b, "commits", e.Commits)
		b = appendIntField(b, "stale", e.Stale)
	case KindCheckpoint:
		b = appendIntField(b, "folded", e.Folded)
		b = appendIntField(b, "best_attempt", e.BestAttempt)
	case KindResume:
		b = appendIntField(b, "resumed_from_attempt", e.Folded)
		b = appendIntField(b, "best_attempt", e.BestAttempt)
	}
	b = append(b, '}', '\n')
	j.buf = b
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func appendIntField(b []byte, name string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendStringField(b []byte, name, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendQuote(b, v)
}

// Multi fans every event out to each sink in order. Nil sinks are
// skipped; with zero or one effective sink the sink itself (or nil) is
// returned, so call sites keep the cheap nil-check fast path.
func Multi(sinks ...Sink) Sink {
	var eff []Sink
	for _, s := range sinks {
		if s != nil {
			eff = append(eff, s)
		}
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	default:
		return multi(eff)
	}
}

type multi []Sink

// Event implements Sink.
func (m multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Recorder is a Sink that captures events in arrival order, for tests
// and offline inspection.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Sink.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the captured events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Filter returns the captured events of one kind, in arrival order.
func (r *Recorder) Filter(k Kind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
