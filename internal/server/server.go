// Package server exposes the partitioning engine as a fault-isolated
// HTTP/JSON service. The design goals mirror the engine's own
// robustness contract:
//
//   - Bounded admission: a fixed worker pool drains a bounded job
//     queue; a full queue sheds load with 429 + Retry-After instead of
//     queueing without bound.
//   - Idempotent jobs: clients may supply their own job ID; re-posting
//     the same ID returns the existing job's status (retry-safe result
//     lookup) instead of re-running the search.
//   - Deadline propagation: each job runs under a context derived from
//     the server's base context plus the request's timeout, so both
//     client budgets and server drains cut the search at its
//     deterministic carve boundaries.
//   - Graceful degradation: a contained worker panic degrades the
//     job's result (Degraded flag, surviving attempts folded) rather
//     than failing the request; parse errors are rejected at admission
//     with line/column context before any search work is queued.
//   - Graceful shutdown: Shutdown stops admission, drains queued and
//     in-flight jobs, and only cancels the base context when the drain
//     deadline expires.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/netlist"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
)

// Config sizes the service. The zero value selects conservative
// defaults suitable for tests and small deployments.
type Config struct {
	// Workers is the number of concurrent partition jobs (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 8). A full queue rejects submissions with 429.
	QueueDepth int
	// DefaultTimeout is the per-job search budget when the request does
	// not set one (default 30s). MaxTimeout caps client-requested
	// budgets (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Library is the device library jobs partition into (empty selects
	// the engine default, library.XC3000()).
	Library library.Library
	// GraphLimits / NetLimits cap parser resource usage for request
	// bodies (zero values select the parsers' defaults).
	GraphLimits hypergraph.Limits
	NetLimits   netlist.Limits
	// Inject arms deterministic fault injection in every job's engine
	// (testing only; leave nil in production).
	Inject *faultinject.Plan
	// Logger receives structured operational logs: request admission
	// and job lifecycle events, each carrying the job ID and the
	// request ID of the submission that created it (nil discards).
	Logger *slog.Logger
	// Metrics is the registry the server instruments itself into and
	// serves on GET /metrics (nil creates a private registry). Every
	// job's engine trace also feeds it through a telemetry.Bridge.
	Metrics *telemetry.Registry
	// Clock supplies wall-clock readings for request latency, request
	// parsing and job durations, and feeds the default Tracer, whose
	// spans time the engine phases (nil selects the system clock). The
	// clock feeds only observability — never search decisions — so
	// fixed-seed job results are byte-identical under a fake clock.
	Clock telemetry.Clock
	// Tracer records every job as a causal span tree (see
	// internal/span): a "job" root span whose descendants cover the
	// search attempts, V-cycle levels and FM passes, served by GET
	// /debug/trace/{job} and GET /debug/flightrecorder. A request
	// carrying a W3C traceparent header parents the job under the
	// caller's span — so a coordinator fan-out yields one stitched
	// cross-process trace — and the sync response carries this
	// process's spans back. Nil creates a default "kpartd" tracer on
	// the configured clock; spans never feed search decisions.
	Tracer *span.Tracer
	// EnablePprof mounts net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints are operator-only surface.
	EnablePprof bool
	// Store, when non-nil, makes the job lifecycle durable: every
	// submission, state transition, search checkpoint and completion is
	// appended (and fsync'd) to the write-ahead log before the server
	// acknowledges it, and New replays the store — completed jobs stay
	// queryable through GET /v1/jobs/{id}, interrupted jobs are
	// re-enqueued with the "recovered" flag and resume from their last
	// checkpoint to the byte-identical fixed-seed result.
	Store *jobstore.Store
	// CheckpointEvery is the durable checkpoint cadence in folded
	// attempts (default 1; ignored without Store).
	CheckpointEvery int
	// Distribute, when non-nil, switches the server into coordinator
	// mode: instead of running the search locally, every job is handed
	// to this hook, which fans the attempts out to remote workers (see
	// internal/coord). The hook receives the request to forward — the
	// submission as posted, except that a gnl circuit arrives as the .clb
	// text of the graph this server mapped with the job seed — and the
	// parsed options, whose Checkpoint/Resume fields carry the durability
	// plumbing; it must observe ctx and derive attempt seeds exactly as
	// the local engine does (Seed + i*kway.SeedStride) so fixed-seed
	// results stay byte-identical to local execution.
	Distribute func(ctx context.Context, req *JobRequest, opts core.Options) (*JobResult, error)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = telemetry.SystemClock()
	}
	if c.Tracer == nil {
		c.Tracer = span.NewTracer(span.Options{Process: "kpartd", Now: c.Clock.Now})
	}
	return c
}

// Job states as reported by the API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateRecovered marks a job replayed from the durable store after a
	// restart, waiting to resume; it becomes "running" when a worker
	// picks it up, and the JobStatus.Recovered flag persists through
	// completion.
	StateRecovered = "recovered"
)

// Error kinds classify job failures for clients. Every non-2xx API
// response carries one of these in apiError.Kind.
const (
	KindMalformed        = "malformed"  // parse error, parser limit or option out of range
	KindInfeasible       = "infeasible" // attempt budget ran without a feasible solution
	KindTimeout          = "timeout"    // search budget expired first
	KindCanceled         = "canceled"   // shutdown or client cancellation
	KindInternal         = "internal"
	KindNotFound         = "not_found"          // unknown job ID or endpoint
	KindMethodNotAllowed = "method_not_allowed" // known endpoint, wrong verb
	KindOverload         = "overload"           // queue full; retry after the hint
	KindDraining         = "draining"           // shutdown in progress
)

// JobFailure is a typed failure a Distribute hook returns to select the
// API error kind directly (e.g. KindInfeasible when every remote
// attempt was infeasible).
type JobFailure struct {
	Kind string
	Msg  string
}

func (e *JobFailure) Error() string { return e.Msg }

type job struct {
	id        string
	reqID     string // request ID of the submission that created the job
	req       *JobRequest
	graph     *hypergraph.Graph
	opts      core.Options
	timeout   time.Duration
	recovered bool               // replayed from the durable store
	cancel    context.CancelFunc // set while running; cuts the search

	// parentSpan is the caller's span from the submission's traceparent
	// header (0 = the job span is a trace root). Written once at
	// submission; the worker parents the job span under it.
	parentSpan span.ID

	mu    sync.Mutex
	state string
	// trace is the job's trace ID: the submission's traceparent when it
	// carried one, else derived from the job's durable identity in
	// runJob — so a crash-recovered resume lands in the original trace.
	// rootSpan is the "job" span runJob opens; a sync response returns
	// its recorded subtree.
	trace    span.TraceID
	rootSpan span.ID
	result   *JobResult
	errMsg   string
	errKind  string
	done     chan struct{}
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// traceRef snapshots the job's trace identity (zero until runJob
// starts it, unless the submission carried a traceparent).
func (j *job) traceRef() (span.TraceID, span.ID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace, j.rootSpan
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Recovered: j.recovered,
		Result: j.result, Error: j.errMsg, ErrorKind: j.errKind}
}

// Server is the HTTP handler plus the worker pool behind it.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	log   *slog.Logger
	clock telemetry.Clock
	met   *metricsBundle

	// circuits holds recently parsed circuits, shared by every request
	// path that parses one (see parseCircuit).
	circuits *circuitCache

	reqSeq atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// admit guards the draining flag and queue channel: submissions
	// take the read side, Shutdown takes the write side to flip
	// draining and close the queue with no sender in flight.
	admit    sync.RWMutex
	draining bool
	queue    chan *job

	jobsMu sync.Mutex
	jobs   map[string]*job
	jobSeq atomic.Int64

	workers sync.WaitGroup
}

// New builds the service and starts its worker pool. Callers serve it
// with net/http and stop it with Shutdown. With Config.Store set, New
// first replays the durable job table: completed jobs become queryable
// again, interrupted jobs are re-enqueued (ahead of new submissions,
// with extra queue headroom so recovery never sheds) and resume from
// their last persisted checkpoint.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		log:        cfg.Logger,
		clock:      cfg.Clock,
		circuits:   &circuitCache{byKey: make(map[circuitKey]*circuitEntry)},
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	s.met = newMetricsBundle(cfg.Metrics, cfg.Workers, func() float64 { return float64(len(s.queue)) })
	recovered := s.recoverJobs()
	s.queue = make(chan *job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.queue <- j
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// recoverJobs rebuilds the job table from the durable store. Completed
// jobs re-enter the map with their persisted outcome; incomplete jobs
// are returned for re-enqueueing, carrying Resume state when a
// checkpoint was persisted. A job whose durable request can no longer
// be rebuilt is failed durably rather than dropped silently.
func (s *Server) recoverJobs() []*job {
	if s.cfg.Store == nil {
		return nil
	}
	closed := make(chan struct{})
	close(closed)
	var out []*job
	for _, rec := range s.cfg.Store.Jobs() {
		switch {
		case rec.Done:
			j := &job{id: rec.ID, state: StateDone, recovered: true, done: closed}
			var res JobResult
			if err := json.Unmarshal(rec.Result, &res); err == nil {
				j.result = &res
			} else {
				s.log.Warn("recovered job has undecodable result", "job", rec.ID, "err", err)
			}
			s.jobs[rec.ID] = j
		case rec.Failed:
			s.jobs[rec.ID] = &job{id: rec.ID, state: StateFailed, recovered: true,
				errMsg: rec.Error, errKind: rec.ErrKind, done: closed}
		default:
			j, err := s.rebuildJob(rec)
			if err != nil {
				s.log.Error("job recovery failed", "job", rec.ID, "err", err)
				if serr := s.cfg.Store.AppendFail(rec.ID, KindInternal, "recovery: "+err.Error()); serr != nil {
					s.log.Error("failure record persist failed", "job", rec.ID, "err", serr)
				}
				s.jobs[rec.ID] = &job{id: rec.ID, state: StateFailed, recovered: true,
					errMsg: "recovery: " + err.Error(), errKind: KindInternal, done: closed}
				continue
			}
			s.jobs[rec.ID] = j
			out = append(out, j)
			if serr := s.cfg.Store.AppendState(rec.ID, jobstore.StateRecovered); serr != nil {
				s.log.Error("state record persist failed", "job", rec.ID, "err", serr)
			}
			s.log.Info("job recovered", "job", rec.ID, "resuming", j.opts.Resume != nil)
		}
	}
	return out
}

// rebuildJob re-parses a recovered job's durable request and attaches
// its newest persisted checkpoint as the resume point.
func (s *Server) rebuildJob(rec *jobstore.Job) (*job, error) {
	if len(rec.Request) == 0 {
		return nil, errors.New("no durable request payload")
	}
	req := new(JobRequest)
	if err := json.Unmarshal(rec.Request, req); err != nil {
		return nil, fmt.Errorf("durable request: %w", err)
	}
	g, opts, timeout, err := s.parseRequest(req)
	if err != nil {
		return nil, err
	}
	if len(rec.Checkpoint) > 0 {
		cp := new(kway.SearchCheckpoint)
		if err := json.Unmarshal(rec.Checkpoint, cp); err != nil {
			return nil, fmt.Errorf("durable checkpoint: %w", err)
		}
		opts.Resume = cp
	}
	return &job{id: rec.ID, req: req, graph: g, opts: opts, timeout: timeout,
		state: StateRecovered, recovered: true, done: make(chan struct{})}, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&muxErrorWriter{ResponseWriter: w}, r)
}

// Ready reports whether the server is accepting new jobs.
func (s *Server) Ready() bool {
	s.admit.RLock()
	defer s.admit.RUnlock()
	return !s.draining
}

// submit registers and enqueues a job. It returns the job and an HTTP
// status: 202 accepted, 200 for an idempotent replay of a known ID,
// 429 when the queue is full, 503 when draining. reqID is the
// submitting request's ID; it is stored on the job so lifecycle logs
// can be joined back to the request. trace/parent carry the
// submission's traceparent header when it had one (an idempotent
// replay keeps the existing job's trace). With a durable store
// configured, the submission is persisted (and fsync'd) once the job
// is admitted.
func (s *Server) submit(reqID string, trace span.TraceID, parent span.ID, req *JobRequest, g *hypergraph.Graph, opts core.Options, timeout time.Duration) (*job, int) {
	id := req.ID
	s.jobsMu.Lock()
	if id != "" {
		if old, ok := s.jobs[id]; ok {
			s.jobsMu.Unlock()
			s.log.Info("job replay", "job", id, "request_id", reqID)
			return old, http.StatusOK
		}
	} else {
		// Skip IDs taken by recovered jobs from a previous process life.
		for {
			id = fmt.Sprintf("job-%d", s.jobSeq.Add(1))
			if _, ok := s.jobs[id]; !ok {
				break
			}
		}
	}
	j := &job{id: id, reqID: reqID, req: req, graph: g, opts: opts, timeout: timeout,
		trace: trace, parentSpan: parent, state: StateQueued, done: make(chan struct{})}
	s.jobs[id] = j
	s.jobsMu.Unlock()

	s.admit.RLock()
	if s.draining {
		s.admit.RUnlock()
		s.dropJob(id)
		s.met.shedDraining.Inc()
		s.log.Warn("job rejected", "job", id, "request_id", reqID, "reason", "draining")
		return nil, http.StatusServiceUnavailable
	}
	select {
	case s.queue <- j:
		s.admit.RUnlock()
		if s.cfg.Store != nil {
			// Persist with the resolved ID so a replayed store rebuilds
			// the same job, not an anonymous one.
			preq := *req
			preq.ID = id
			if err := s.cfg.Store.AppendSubmit(id, &preq); err != nil {
				s.log.Error("submit persist failed", "job", id, "err", err)
			}
		}
		s.log.Info("job queued", "job", id, "request_id", reqID, "cells", g.NumCells(), "timeout", timeout)
		return j, http.StatusAccepted
	default:
		s.admit.RUnlock()
		s.dropJob(id)
		s.met.shedQueueFull.Inc()
		s.log.Warn("job rejected", "job", id, "request_id", reqID, "reason", "queue-full")
		return nil, http.StatusTooManyRequests
	}
}

// dropJob forgets a job that was never admitted, so a client retry
// after 429/503 is not confused by a phantom entry.
func (s *Server) dropJob(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	defer close(j.done)
	s.met.jobsInflight.Add(1)
	s.met.workersBusy.Add(1)
	defer s.met.jobsInflight.Add(-1)
	defer s.met.workersBusy.Add(-1)
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	if j.trace.IsZero() {
		// No traceparent on the submission: derive the trace from the
		// job's durable identity — the same identity the checkpoint
		// carries — so a crash-recovered resume joins the original
		// run's trace instead of starting a disconnected one.
		j.trace = span.DeriveTraceID(j.id, j.opts.Seed, j.opts.Solutions)
	}
	trace := j.trace
	j.mu.Unlock()
	s.persist(j.id, "state record", func() error {
		return s.cfg.Store.AppendState(j.id, jobstore.StateRunning)
	})

	// The job span roots this process's slice of the trace; every
	// engine span (attempt, level, fm-pass, ...) descends from it. It
	// must end before j.done closes so a sync waiter sees it recorded.
	jobRun := s.cfg.Tracer.Root(trace, j.parentSpan).Start("job", -1)
	if j.graph != nil {
		jobRun.Detail(fmt.Sprintf("job=%s cells=%d seed=%d", j.id, j.graph.NumCells(), j.opts.Seed))
	}
	defer jobRun.End()
	// Every job's engine events ride on its spans into the server's
	// metrics registry. Neither perturbs the search.
	j.opts.Spans = jobRun.Scope().WithSink(s.met.bridge)
	j.mu.Lock()
	j.rootSpan = jobRun.SpanID()
	j.mu.Unlock()
	if s.cfg.Store != nil {
		id := j.id
		j.opts.CheckpointEvery = s.cfg.CheckpointEvery
		j.opts.Checkpoint = func(cp kway.SearchCheckpoint) {
			s.persist(id, "checkpoint", func() error {
				return s.cfg.Store.AppendCheckpoint(id, cp)
			})
		}
	}
	start := s.clock.Now()
	var result *JobResult
	var err error
	if s.cfg.Distribute != nil && j.req != nil {
		// The hook's ctx carries the submitting request's ID so the
		// coordinator can forward it (X-Request-Id) and tag its logs.
		result, err = s.cfg.Distribute(ContextWithRequestID(ctx, j.reqID), forwarded(j), j.opts)
	} else {
		var res core.Result
		res, err = core.PartitionContext(ctx, j.graph, j.opts)
		if err == nil {
			result = ResultJSON(j.graph, res, j.opts.Board)
		}
	}
	elapsed := s.clock.Now().Sub(start)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.errKind = classify(err)
		s.met.observeJobFailure(j.errKind)
		if j.errKind == KindCanceled && !s.Ready() {
			// Interrupted by the drain: leave the durable record without a
			// terminal entry so a restarted daemon recovers the job and
			// resumes it from its last checkpoint.
			s.log.Warn("job interrupted by drain; recoverable on restart",
				"job", j.id, "request_id", j.reqID, "elapsed", elapsed)
			return
		}
		s.persist(j.id, "failure record", func() error {
			return s.cfg.Store.AppendFail(j.id, j.errKind, j.errMsg)
		})
		s.log.Warn("job failed", "job", j.id, "request_id", j.reqID, "kind", j.errKind, "elapsed", elapsed, "err", err)
		return
	}
	j.state = StateDone
	j.result = result
	s.persist(j.id, "completion record", func() error {
		return s.cfg.Store.AppendDone(j.id, result)
	})
	s.met.jobsDone.Inc()
	if result.Degraded {
		s.met.degraded.Inc()
		s.log.Warn("job done degraded", "job", j.id, "request_id", j.reqID, "elapsed", elapsed,
			"panicked", result.Panicked, "seeds", fmt.Sprint(result.PanickedSeeds))
		return
	}
	s.log.Info("job done", "job", j.id, "request_id", j.reqID, "elapsed", elapsed,
		"parts", len(result.Parts), "cost", result.DeviceCost)
}

// forwarded returns the request a Distribute hook fans out for j. A gnl
// circuit goes out as the .clb text of the graph this server mapped with
// the job seed, the circuit a local run partitions; forwarded as gnl,
// every worker would map it again with its own attempt seed.
func forwarded(j *job) *JobRequest {
	if j.req.Format != "gnl" {
		return j.req
	}
	var sb strings.Builder
	hypergraph.Write(&sb, j.graph) // a strings.Builder never fails a write
	r := *j.req
	r.Circuit, r.Format = sb.String(), ""
	return &r
}

// LocalAttempt returns a closure that runs one request on this
// server's own engine, in the shape the coordinator's
// graceful-degradation hook wants (coord.Pool.SetLocal): parse the
// request, run the search under ctx, and render the API result. The
// request's timeout field is ignored — the caller's ctx is the budget.
func (s *Server) LocalAttempt() func(ctx context.Context, req *JobRequest) (*JobResult, error) {
	return func(ctx context.Context, req *JobRequest) (*JobResult, error) {
		g, opts, _, err := s.parseRequest(req)
		if err != nil {
			return nil, err
		}
		// A coordinator falling back to its own engine passes the rpc
		// span's scope through ctx, keeping the local attempt in the
		// same trace as the remote ones. The coordinator's reduction
		// reports the attempt, so the fallback sends no events.
		if sc := span.FromContext(ctx); sc.Enabled() {
			opts.Spans = sc.WithSink(nil)
		}
		res, err := core.PartitionContext(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		return ResultJSON(g, res, opts.Board), nil
	}
}

// persist runs one durable-store append, logging (never failing the
// job on) store errors. A nil store makes it a no-op.
func (s *Server) persist(jobID, what string, fn func() error) {
	if s.cfg.Store == nil {
		return
	}
	if err := fn(); err != nil {
		s.log.Error("durable store append failed", "job", jobID, "record", what, "err", err)
	}
}

// classify maps an engine failure to an API error kind, mirroring the
// CLI's exit-code mapping (budget first: a timeout with no feasible
// solution wraps both error types).
func classify(err error) string {
	var jf *JobFailure
	if errors.As(err, &jf) {
		return jf.Kind
	}
	var budget *search.ErrBudget
	if errors.As(err, &budget) {
		if errors.Is(budget.Cause, context.Canceled) {
			return KindCanceled
		}
		return KindTimeout
	}
	var inf *kway.InfeasibleError
	if errors.As(err, &inf) {
		return KindInfeasible
	}
	var nperr *netlist.ParseError
	var hperr *hypergraph.ParseError
	var operr *kway.OptionError
	if errors.As(err, &nperr) || errors.As(err, &hperr) || errors.As(err, &operr) {
		return KindMalformed
	}
	if errors.Is(err, context.Canceled) {
		return KindCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return KindTimeout
	}
	return KindInternal
}

// Shutdown drains the service: admission stops immediately (new
// submissions get 503, Ready flips false), queued and running jobs run
// to completion, and the worker pool exits. If ctx expires first the
// base context is canceled — cutting in-flight searches at their
// deterministic carve boundaries — and Shutdown waits for the workers
// to observe it before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admit.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admit.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}
