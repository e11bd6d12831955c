// Package jobstore is the durability layer of the partitioning
// service: an append-only, fsync'd, CRC-checked write-ahead log plus a
// compacted snapshot, recording job submissions, state transitions,
// periodic search checkpoints and completions. A process that crashes
// mid-search reopens the store, replays the log and resumes every
// interrupted job from its last checkpoint — and because the search
// layer's checkpoints are deterministic (internal/kway), the resumed
// result is byte-identical to the uninterrupted run.
//
// On-disk layout (one directory per store):
//
//	wal.log        framed records: uint32 LE payload length,
//	               uint32 LE CRC-32C of the payload, payload
//	               (1 type byte + JSON body)
//	snapshot.json  the job table as of the last compaction,
//	               written atomically (tmp + rename + fsync)
//
// Replay is paranoid where it must be and forgiving where it can be: a
// record whose header is short, whose length is implausible, whose CRC
// mismatches or whose body fails to decode ends the replay — the tail
// from that offset is truncated with a warning (a torn append is the
// expected crash signature, not an error), and every record before it
// is kept. Replay never crashes on file content.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/telemetry"
)

// Record types (the first payload byte).
const (
	recSubmit byte = iota + 1
	recState
	recCheckpoint
	recDone
	recFail
)

// Job states recorded by AppendState and surfaced by replay. The store
// itself does not interpret them beyond "done/failed ends the job";
// the vocabulary is shared with internal/server's job lifecycle.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateRecovered = "recovered"
)

// maxRecord bounds a record payload during replay; anything larger is
// treated as a corrupt length (the biggest legitimate record is a
// checkpoint or result of a few hundred KB).
const maxRecord = 16 << 20

// crcTable is the Castagnoli polynomial (CRC-32C), hardware-assisted
// on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is the JSON body shared by every record type; unused fields
// stay empty per type.
type record struct {
	// Job identifies the job every record belongs to.
	Job string `json:"job"`
	// State is the transition name (recState).
	State string `json:"state,omitempty"`
	// Kind and Error describe a failure (recFail).
	Kind  string `json:"kind,omitempty"`
	Error string `json:"error,omitempty"`
	// Payload carries the submitted request (recSubmit), the search
	// checkpoint (recCheckpoint) or the result (recDone), opaque to
	// the store.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Job is the replayed durable view of one job: the submitted request,
// the latest recorded state, the newest checkpoint and the outcome.
type Job struct {
	ID      string          `json:"id"`
	Request json.RawMessage `json:"request,omitempty"`
	State   string          `json:"state,omitempty"`
	// Checkpoint is the newest persisted search checkpoint (nil if the
	// job never reached one); an incomplete job resumes from it.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Done/Result and Failed/ErrKind/Error record the outcome; a job
	// with neither flag set was interrupted and is a recovery
	// candidate.
	Done    bool            `json:"done,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Failed  bool            `json:"failed,omitempty"`
	ErrKind string          `json:"err_kind,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Complete reports whether the job reached a terminal record.
func (j *Job) Complete() bool { return j.Done || j.Failed }

// Metrics are the store's fpgapart_jobstore_* series. Construct with
// NewMetrics; a nil *Metrics disables instrumentation.
type Metrics struct {
	fsync       *telemetry.Histogram
	appends     *telemetry.CounterVec
	replayed    *telemetry.Counter
	recovered   *telemetry.Counter
	truncations *telemetry.Counter
	compactions *telemetry.Counter
}

// Metric names.
const (
	MetricFsyncSeconds = "fpgapart_jobstore_fsync_seconds"
	MetricAppends      = "fpgapart_jobstore_appends_total"
	MetricReplayed     = "fpgapart_jobstore_replayed_records_total"
	MetricRecovered    = "fpgapart_jobstore_recovered_jobs_total"
	MetricTruncations  = "fpgapart_jobstore_truncated_tails_total"
	MetricCompactions  = "fpgapart_jobstore_compactions_total"
)

// NewMetrics registers the store's metric families on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		fsync:       r.Histogram(MetricFsyncSeconds, "WAL fsync latency per append.", telemetry.LatencyBuckets()),
		appends:     r.CounterVec(MetricAppends, "WAL records appended, by record type.", "type"),
		replayed:    r.Counter(MetricReplayed, "WAL records replayed at startup."),
		recovered:   r.Counter(MetricRecovered, "Incomplete jobs recovered from the store at startup."),
		truncations: r.Counter(MetricTruncations, "Torn or corrupt WAL tails truncated during replay."),
		compactions: r.Counter(MetricCompactions, "Snapshot compactions performed."),
	}
}

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// Logger receives replay warnings (torn tails, unreadable
	// snapshots). Nil discards.
	Logger *slog.Logger
	// Metrics, when non-nil, instruments the store.
	Metrics *Metrics
	// Inject, when non-nil, arms the SiteWAL kill-point inside the
	// append path (after the frame is partially written, before it
	// completes) — a KindPanic rule there leaves a genuine torn tail.
	// Testing only.
	Inject *faultinject.Plan
}

// Store is an open job store, safe for concurrent use. Appends are
// serialized under one mutex and each is fsync'd before returning, so
// an acknowledged record survives a crash immediately after.
type Store struct {
	mu   sync.Mutex
	dir  string
	wal  *os.File
	log  *slog.Logger
	met  *Metrics
	inj  *faultinject.Plan
	seq  int // append ordinal, the SiteWAL coordinate
	jobs map[string]*Job
	ord  []string // job IDs in first-seen order
}

// Open opens (or creates) the store at opts.Dir, replays the snapshot
// and the WAL, truncates any torn tail, and returns the store plus
// every replayed job in submission order. It never fails on WAL
// content — only on real I/O errors.
func Open(opts Options) (*Store, []*Job, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("jobstore: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{
		dir:  opts.Dir,
		log:  logger,
		met:  opts.Metrics,
		inj:  opts.Inject,
		jobs: make(map[string]*Job),
	}
	s.loadSnapshot()
	if err := s.replayWAL(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	s.wal = f
	out := make([]*Job, 0, len(s.ord))
	recovered := 0
	for _, id := range s.ord {
		j := s.jobs[id]
		out = append(out, j)
		if !j.Complete() {
			recovered++
		}
	}
	if s.met != nil {
		s.met.recovered.Add(int64(recovered))
	}
	return s, out, nil
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// loadSnapshot restores the job table from the last compaction. A
// missing snapshot is the common case; an unreadable one is warned
// about and skipped (the WAL after the last compaction is still
// replayed — losing pre-compaction history beats refusing to start).
func (s *Store) loadSnapshot() {
	data, err := os.ReadFile(s.snapshotPath())
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("jobstore: unreadable snapshot, starting from WAL only", "path", s.snapshotPath(), "err", err)
		}
		return
	}
	var snap struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		s.log.Warn("jobstore: corrupt snapshot, starting from WAL only", "path", s.snapshotPath(), "err", err)
		return
	}
	for _, j := range snap.Jobs {
		if j == nil || j.ID == "" || s.jobs[j.ID] != nil {
			continue
		}
		s.jobs[j.ID] = j
		s.ord = append(s.ord, j.ID)
	}
}

// replayWAL folds every intact record into the job table and truncates
// the file at the first torn or corrupt one.
func (s *Store) replayWAL() error {
	data, err := os.ReadFile(s.walPath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("jobstore: %w", err)
	}
	valid := 0
	reason := ""
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < 8 {
			reason = "short header"
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxRecord {
			reason = fmt.Sprintf("implausible record length %d", n)
			break
		}
		if len(rest) < 8+int(n) {
			reason = fmt.Sprintf("torn record (%d of %d payload bytes)", len(rest)-8, n)
			break
		}
		payload := rest[8 : 8+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			reason = "CRC mismatch"
			break
		}
		if err := s.apply(payload[0], payload[1:]); err != nil {
			reason = err.Error()
			break
		}
		valid += 8 + int(n)
		if s.met != nil {
			s.met.replayed.Inc()
		}
	}
	if valid < len(data) {
		s.log.Warn("jobstore: truncating torn WAL tail",
			"path", s.walPath(), "valid_bytes", valid, "dropped_bytes", len(data)-valid, "reason", reason)
		if s.met != nil {
			s.met.truncations.Inc()
		}
		if err := os.Truncate(s.walPath(), int64(valid)); err != nil {
			return fmt.Errorf("jobstore: truncating torn tail: %w", err)
		}
	}
	return nil
}

// apply folds one decoded record into the job table. Unknown types and
// undecodable bodies are errors (the caller treats them as a corrupt
// tail); a record for an unknown job ID creates the job, so a WAL
// whose submit record predates the last compaction still replays.
func (s *Store) apply(typ byte, body []byte) error {
	var rec record
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("undecodable record body: %w", err)
	}
	if rec.Job == "" {
		return errors.New("record without job ID")
	}
	j := s.jobs[rec.Job]
	if j == nil {
		j = &Job{ID: rec.Job}
		s.jobs[rec.Job] = j
		s.ord = append(s.ord, rec.Job)
	}
	switch typ {
	case recSubmit:
		j.Request = rec.Payload
		if j.State == "" {
			j.State = StateQueued
		}
	case recState:
		j.State = rec.State
	case recCheckpoint:
		j.Checkpoint = rec.Payload
	case recDone:
		j.Done = true
		j.Result = rec.Payload
	case recFail:
		j.Failed = true
		j.ErrKind = rec.Kind
		j.Error = rec.Error
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return nil
}

// append frames, writes and fsyncs one record, then folds it into the
// in-memory job table. The frame is written in two parts with the
// SiteWAL fault hook between them, so an injected panic leaves a
// genuine torn record for the replay path.
func (s *Store) append(typ byte, rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("jobstore: store is closed")
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, typ)
	payload = append(payload, body...)
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	seq := s.seq
	s.seq++
	split := 8 + len(payload)/2
	if _, err := s.wal.Write(frame[:split]); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	// The kill-point: the header and half the payload are in the file,
	// the rest is not. A KindPanic rule here is a crash mid-append.
	if s.inj != nil {
		if ferr := s.inj.At(faultinject.SiteWAL, -1, seq, 0); ferr != nil {
			return fmt.Errorf("jobstore: %w", ferr)
		}
	}
	if _, err := s.wal.Write(frame[split:]); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	start := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("jobstore: fsync: %w", err)
	}
	if s.met != nil {
		s.met.fsync.Observe(time.Since(start).Seconds())
		s.met.appends.With(typeName(typ)).Inc()
	}
	if err := s.apply(typ, payload[1:]); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

func typeName(typ byte) string {
	switch typ {
	case recSubmit:
		return "submit"
	case recState:
		return "state"
	case recCheckpoint:
		return "checkpoint"
	case recDone:
		return "done"
	case recFail:
		return "fail"
	default:
		return "unknown"
	}
}

// AppendSubmit records a job submission; req is serialized as the
// job's durable request payload.
func (s *Store) AppendSubmit(id string, req any) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.append(recSubmit, record{Job: id, Payload: payload})
}

// AppendState records a state transition.
func (s *Store) AppendState(id, state string) error {
	return s.append(recState, record{Job: id, State: state})
}

// AppendCheckpoint records a search checkpoint; cp is serialized as
// the job's newest resume point.
func (s *Store) AppendCheckpoint(id string, cp any) error {
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.append(recCheckpoint, record{Job: id, Payload: payload})
}

// AppendDone records successful completion with the serialized result.
func (s *Store) AppendDone(id string, result any) error {
	payload, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return s.append(recDone, record{Job: id, Payload: payload})
}

// AppendFail records terminal failure with a typed kind and message.
func (s *Store) AppendFail(id, kind, msg string) error {
	return s.append(recFail, record{Job: id, Kind: kind, Error: msg})
}

// Jobs returns copies of every job's current durable view, in
// submission order.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.ord))
	for _, id := range s.ord {
		cp := *s.jobs[id]
		out = append(out, &cp)
	}
	return out
}

// Job returns a copy of the current durable view of one job (nil if
// unknown).
func (s *Store) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil
	}
	cp := *j
	return &cp
}

// Compact writes the current job table to snapshot.json atomically
// (tmp + fsync + rename + directory fsync) and truncates the WAL: the
// snapshot now carries everything the log did.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return errors.New("jobstore: store is closed")
	}
	snap := struct {
		Jobs []*Job `json:"jobs"`
	}{Jobs: make([]*Job, 0, len(s.ord))}
	for _, id := range s.ord {
		snap.Jobs = append(snap.Jobs, s.jobs[id])
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The WAL restarts empty: truncate and rewind the append offset.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if s.met != nil {
		s.met.compactions.Inc()
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobstore: dir fsync: %w", err)
	}
	return nil
}

// Close releases the WAL file handle. Pending appends must have
// returned; Close does not flush anything (every append already did).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
