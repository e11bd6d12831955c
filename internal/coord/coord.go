// Package coord fans one partitioning job's solution attempts out to a
// fleet of kpartd workers over the existing HTTP/JSON API, preserving
// the engine's determinism contract end to end.
//
// The distribution unit is a single solution attempt: attempt i of a
// search with base seed S is posted to a worker as a Solutions=1
// synchronous search with seed S + i*kway.SeedStride. Because every
// attempt derives all randomness from that seed alone (the exported
// attempt→seed mapping is fixed forever), the worker returns the
// byte-identical solution the local engine would fold at index i — so
// retrying an attempt on a different worker, hedging it against a
// straggler, or re-sharding a dead worker's attempts over the
// survivors cannot change the result, only its arrival time. The
// outcomes fold through the same index-ordered reducer (kway.Reduce)
// the local engine uses, giving a coordinator run the byte-identical
// fixed-seed result, checkpoints and reducer trace of a local run.
//
// Failure handling distinguishes three classes:
//
//   - Deterministic outcomes (HTTP 422 infeasible, 400 malformed) are
//     final: the same request would fail the same way anywhere, so
//     they are never retried. Infeasible folds as a failed attempt,
//     malformed aborts the job.
//   - Transient outcomes (connection errors, 429/503 with Retry-After,
//     5xx, worker timeouts) are retried on the next worker in the ring
//     with jittered exponential backoff, up to Config.Tries attempts.
//   - Exhaustion (every try failed transiently) falls back to the
//     local engine when a Local hook is installed, or aborts the job.
//
// Attempts carry the circuit by its SHA-256 digest, not its text: a
// worker resolves the digest from its circuit cache. A worker that does
// not hold the circuit (first contact, eviction, restart) answers 409
// circuit_unknown, and the same try re-sends the attempt to it once
// with the text; a second circuit_unknown is transient.
//
// Hedging bounds tail latency: when a request has been in flight for
// Config.HedgeAfter, a duplicate is launched at the next worker and
// the first completed response wins — safe precisely because both
// legs compute the same bytes.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/kway"
	"fpgapart/internal/metrics"
	"fpgapart/internal/search"
	"fpgapart/internal/server"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
)

// Metric names exported by the coordinator.
const (
	MetricAttempts       = "fpgapart_coord_attempts_total"
	MetricRetries        = "fpgapart_coord_retries_total"
	MetricHedges         = "fpgapart_coord_hedges_total"
	MetricFallbacks      = "fpgapart_coord_local_fallbacks_total"
	MetricResends        = "fpgapart_coord_circuit_resends_total"
	MetricAttemptSeconds = "fpgapart_coord_attempt_seconds"
)

// Attempt outcome labels for MetricAttempts.
const (
	OutcomeOK         = "ok"
	OutcomeInfeasible = "infeasible"
	OutcomeFatal      = "fatal"
	OutcomeFallback   = "local_fallback"
	OutcomeExhausted  = "exhausted"
)

// Metrics holds the coordinator's instruments. A nil *Metrics disables
// instrumentation (every recording helper is nil-safe).
type Metrics struct {
	attempts   *telemetry.CounterVec
	retries    *telemetry.Counter
	hedges     *telemetry.Counter
	fallbacks  *telemetry.Counter
	resends    *telemetry.Counter
	attemptSec *telemetry.Histogram
}

// NewMetrics registers the coordinator's instruments in r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		attempts:   r.CounterVec(MetricAttempts, "Distributed solution attempts by final outcome.", "outcome"),
		retries:    r.Counter(MetricRetries, "Attempt retries after transient worker failures."),
		hedges:     r.Counter(MetricHedges, "Hedged duplicate requests launched against stragglers."),
		fallbacks:  r.Counter(MetricFallbacks, "Attempts run on the local engine after the worker pool was exhausted."),
		resends:    r.Counter(MetricResends, "Attempts re-sent with the circuit text to a worker that answered circuit_unknown."),
		attemptSec: r.Histogram(MetricAttemptSeconds, "Latency of successful remote attempt requests.", telemetry.LatencyBuckets()),
	}
}

func (m *Metrics) attempt(outcome string) {
	if m != nil {
		m.attempts.With(outcome).Inc()
	}
}

func (m *Metrics) retry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *Metrics) hedge() {
	if m != nil {
		m.hedges.Inc()
	}
}

func (m *Metrics) fallback() {
	if m != nil {
		m.fallbacks.Inc()
	}
}

func (m *Metrics) resend() {
	if m != nil {
		m.resends.Inc()
	}
}

func (m *Metrics) latency(seconds float64) {
	if m != nil {
		m.attemptSec.Observe(seconds)
	}
}

// Config sizes the coordinator. The zero value of every optional field
// selects a conservative default.
type Config struct {
	// Workers is the list of worker base URLs (http://host:port). At
	// least one is required. Attempt i's try k is posted to
	// Workers[(i+k) % len(Workers)], so a dead worker's attempts
	// re-shard deterministically over the survivors.
	Workers []string
	// Client issues the HTTP requests (default &http.Client{}; the
	// per-request deadline comes from AttemptTimeout, not the client).
	Client *http.Client
	// AttemptTimeout bounds one remote attempt request, and is
	// forwarded as the worker-side search budget (default 60s).
	AttemptTimeout time.Duration
	// Tries is the number of workers an attempt is offered to before
	// the coordinator gives up on the pool (default 3, capped at
	// len(Workers) implicitly by the ring walk revisiting workers).
	Tries int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between tries (defaults 100ms and 5s). A worker's Retry-After
	// hint is honored up to BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter launches a duplicate request at the next worker when
	// the primary has been in flight this long (0 disables hedging;
	// it also stays off with a single worker).
	HedgeAfter time.Duration
	// Concurrency bounds in-flight attempts (default 2*len(Workers)).
	Concurrency int
	// Logger receives retry/hedge/fallback decisions (nil discards).
	Logger *slog.Logger
	// Metrics instruments the coordinator (nil disables).
	Metrics *Metrics
}

// Pool distributes jobs over the worker fleet. Its Distribute method
// matches server.Config.Distribute.
type Pool struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger
	met    *Metrics
	local  func(ctx context.Context, req *server.JobRequest) (*server.JobResult, error)
}

// New validates the worker list and the retry settings and builds a
// Pool.
func New(cfg Config) (*Pool, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("coord: at least one worker URL is required")
	}
	switch {
	case cfg.Tries < 0:
		return nil, fmt.Errorf("coord: negative Tries %d", cfg.Tries)
	case cfg.AttemptTimeout < 0:
		return nil, fmt.Errorf("coord: negative AttemptTimeout %v", cfg.AttemptTimeout)
	case cfg.HedgeAfter < 0:
		return nil, fmt.Errorf("coord: negative HedgeAfter %v", cfg.HedgeAfter)
	}
	workers := make([]string, len(cfg.Workers))
	for i, w := range cfg.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("coord: worker %q is not an http(s) URL", cfg.Workers[i])
		}
		workers[i] = w
	}
	cfg.Workers = workers
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 60 * time.Second
	}
	if cfg.Tries == 0 {
		cfg.Tries = 3
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 2 * len(cfg.Workers)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Pool{cfg: cfg, client: cfg.Client, log: cfg.Logger, met: cfg.Metrics}, nil
}

// SetLocal installs the graceful-degradation hook: when every try of
// an attempt fails transiently (the whole pool is dead or overloaded),
// the attempt runs on fn instead of failing the job. Typically this is
// the coordinating server's own engine (server.LocalAttempt). Must be
// called before Distribute is first invoked.
func (p *Pool) SetLocal(fn func(ctx context.Context, req *server.JobRequest) (*server.JobResult, error)) {
	p.local = fn
}

// attemptError marks a remote attempt that completed deterministically
// without a feasible solution (HTTP 422): it folds into the reduction
// as a failed attempt, exactly like a local infeasible attempt, and is
// never retried — the outcome is a pure function of the attempt seed.
type attemptError struct{ msg string }

func (e *attemptError) Error() string { return e.msg }

// Distribute runs one job's search by fanning its attempts over the
// worker pool and folding the outcomes through kway.Reduce, the
// reducer the local engine folds through — so checkpoints, trace
// events and the result are interchangeable with a local run's. It
// matches server.Config.Distribute: req is the submission to forward
// (a gnl circuit already mapped to .clb text), opts the parsed options
// carrying the durability plumbing (Checkpoint/Resume),
// the search shape (Solutions/Seed/MaxStale) and the observability
// hook (Spans and its sink).
func (p *Pool) Distribute(ctx context.Context, req *server.JobRequest, opts core.Options) (*server.JobResult, error) {
	if req == nil {
		return nil, errors.New("coord: nil request")
	}
	rid := server.RequestIDFromContext(ctx)
	p.log.Info("distributing search", "request_id", rid, "solutions", opts.Solutions, "seed", opts.Seed, "pool", len(p.cfg.Workers))
	full := *req
	full.CircuitDigest = server.CircuitDigest(req.Circuit)

	// Every remote attempt hangs its rpc spans (and the worker's ingested
	// spans) off its own attempt span under the reducer's search span.
	best, fs, err := kway.Reduce(ctx, kway.Options{
		Solutions:  opts.Solutions,
		Seed:       opts.Seed,
		Workers:    p.cfg.Concurrency,
		MaxStale:   opts.MaxStale,
		Checkpoint: opts.Checkpoint,
		Resume:     opts.Resume,
		Spans:      opts.Spans,
	}, kway.Reducer[*server.JobResult]{
		NewAttempt: func() search.AttemptFunc[*server.JobResult] {
			return func(ctx context.Context, attempt int, seed int64) (*server.JobResult, error) {
				return p.runAttempt(ctx, &full, attempt, seed)
			}
		},
		// Only a deterministic infeasible attempt (or a contained local
		// panic) may fold as a failure; anything else — malformed
		// request, pool exhaustion — would silently change the reduction
		// relative to a local run, so it aborts the job instead.
		Fatal: func(err error) bool {
			var ae *attemptError
			var pe *search.PanicError
			return !errors.As(err, &ae) && !errors.As(err, &pe)
		},
		Score: resultScore,
	})
	if err != nil {
		return nil, err
	}
	// The incumbent carries the per-solution fields (circuit, parts,
	// costs); overlay the fold aggregates so the summary matches what
	// the local engine reports for the same search.
	res := *best
	res.Feasible = fs.Feasible
	res.Failed = fs.Failed
	res.Panicked = fs.Panicked
	res.PanickedSeeds = fs.PanickedSeeds
	res.Degraded = fs.Degraded
	res.Stopped = fs.Stopped
	if fs.Resumed {
		from := fs.ResumedFrom
		res.ResumedFromAttempt = &from
	}
	return &res, nil
}

// resultScore reads the objective values off a worker's result, the
// API-schema twin of metrics.Solution.Score: float64 fields round-trip
// JSON exactly, so the coordinator's fold compares the same numbers the
// local engine does.
func resultScore(r *server.JobResult) metrics.Score {
	s := metrics.Score{Cost: r.DeviceCost, K: len(r.Parts), IOBUtil: r.AvgIOBUtil}
	if r.TopoCost != nil {
		s.Topo, s.HasTopo = *r.TopoCost, true
	}
	return s
}

// rpc outcome classes, in decreasing finality.
const (
	classOK         = iota // solution in hand
	classInfeasible        // deterministic per-attempt failure; folds, never retried
	classFatal             // deterministic job-level failure; aborts the search
	classCtx               // the job's own context ended
	classTransient         // worker-specific failure; retry elsewhere
	classUnknown           // worker lacks the circuit; re-send the text
)

type rpcOutcome struct {
	class      int
	sol        *server.JobResult
	err        error
	retryAfter time.Duration
}

// runAttempt executes one solution attempt against the pool: walk the
// worker ring with backoff between tries, hedge stragglers, fall back
// to the local engine when the pool is exhausted. req carries both the
// circuit text and its digest.
func (p *Pool) runAttempt(ctx context.Context, req *server.JobRequest, attempt int, seed int64) (*server.JobResult, error) {
	// The remote form of attempt i: a fresh anonymous Solutions=1
	// search whose seed is the attempt seed. MaxStale is meaningless
	// for one attempt and the worker-side budget is the coordinator's
	// per-attempt timeout. The wire body names the circuit by digest
	// only; r keeps the text for a re-send and the local fallback.
	r := *req
	r.ID = ""
	r.Solutions = 1
	r.Seed = seed
	r.MaxStale = 0
	r.TimeoutMS = int64(p.cfg.AttemptTimeout / time.Millisecond)
	lean := r
	lean.Circuit = ""
	body, err := json.Marshal(&lean)
	if err != nil {
		return nil, fmt.Errorf("coord: marshal attempt %d: %w", attempt, err)
	}

	rid := server.RequestIDFromContext(ctx)
	var last rpcOutcome
	for try := 0; try < p.cfg.Tries; try++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("coord: attempt %d: %w", attempt, cerr)
		}
		out := p.hedgedPost(ctx, attempt, try, body, &r)
		switch out.class {
		case classOK:
			p.met.attempt(OutcomeOK)
			return out.sol, nil
		case classInfeasible:
			p.met.attempt(OutcomeInfeasible)
			return nil, out.err
		case classFatal:
			p.met.attempt(OutcomeFatal)
			return nil, out.err
		case classCtx:
			return nil, fmt.Errorf("coord: attempt %d: %w", attempt, out.err)
		}
		last = out
		if try < p.cfg.Tries-1 {
			p.met.retry()
			wait := p.backoff(attempt, try, out.retryAfter)
			p.log.Warn("attempt retrying", "request_id", rid, "attempt", attempt, "try", try, "wait", wait, "err", out.err)
			if !sleepCtx(ctx, wait) {
				return nil, fmt.Errorf("coord: attempt %d: %w", attempt, ctx.Err())
			}
		}
	}
	if p.local != nil {
		p.met.attempt(OutcomeFallback)
		p.met.fallback()
		p.log.Warn("worker pool exhausted; running attempt locally", "request_id", rid, "attempt", attempt, "err", last.err)
		sol, err := p.local(ctx, &r)
		if err == nil {
			return sol, nil
		}
		var inf *kway.InfeasibleError
		if errors.As(err, &inf) {
			return nil, &attemptError{msg: err.Error()}
		}
		return nil, err
	}
	p.met.attempt(OutcomeExhausted)
	return nil, fmt.Errorf("coord: attempt %d: %d tries across %d workers failed: %w",
		attempt, p.cfg.Tries, len(p.cfg.Workers), last.err)
}

// hedgedPost posts one try, racing a duplicate against the next worker
// when the primary stalls past HedgeAfter. The first non-transient
// response wins; with both legs transient, the last loser is returned
// for the backoff loop. Each leg handles its own circuit_unknown.
func (p *Pool) hedgedPost(ctx context.Context, attempt, try int, body []byte, full *server.JobRequest) rpcOutcome {
	n := len(p.cfg.Workers)
	primary := p.cfg.Workers[(attempt+try)%n]
	ch := make(chan rpcOutcome, 2)
	go func() { ch <- p.post(ctx, primary, attempt, try, body, full) }()
	var hedgeC <-chan time.Time
	if p.cfg.HedgeAfter > 0 && n > 1 {
		timer := time.NewTimer(p.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	outstanding := 1
	var last rpcOutcome
	for {
		select {
		case out := <-ch:
			outstanding--
			if out.class != classTransient {
				return out
			}
			last = out
			if outstanding == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			secondary := p.cfg.Workers[(attempt+try+1)%n]
			p.met.hedge()
			p.log.Info("hedging straggler", "request_id", server.RequestIDFromContext(ctx),
				"attempt", attempt, "try", try, "worker", secondary)
			outstanding++
			go func() { ch <- p.post(ctx, secondary, attempt, try, body, full) }()
		}
	}
}

// maxResponse bounds how much of a worker response is read (a result
// summary is small; this is pure defense).
const maxResponse = 8 << 20

// post issues one request to one worker and classifies the response.
// With spans armed (the attempt's scope rides in ctx) the wire call is
// wrapped in an "rpc" span whose traceparent is forwarded to the
// worker, and the spans the worker returns for that trace are ingested
// into the coordinator's collector — one stitched cross-process trace.
// A worker that answers circuit_unknown to the digest-only body is sent
// full, the attempt with its text, once, under the same span.
func (p *Pool) post(ctx context.Context, worker string, attempt, try int, body []byte, full *server.JobRequest) rpcOutcome {
	sc := span.FromContext(ctx)
	rpc := sc.Start("rpc", attempt)
	if sc.Enabled() {
		rpc.Detail(fmt.Sprintf("worker=%s try=%d", worker, try))
	}
	defer rpc.End()
	out := p.postOnce(ctx, worker, rpc.Scope(), body)
	if out.class != classUnknown {
		return out
	}
	p.met.resend()
	text, err := json.Marshal(full)
	if err != nil {
		return rpcOutcome{class: classFatal, err: fmt.Errorf("coord: marshal attempt %d: %w", attempt, err)}
	}
	if out = p.postOnce(ctx, worker, rpc.Scope(), text); out.class == classUnknown {
		// The worker cannot place a circuit it was just sent.
		out.class = classTransient
	}
	return out
}

// postOnce is one wire exchange under an rpc span's scope.
func (p *Pool) postOnce(ctx context.Context, worker string, rpcScope span.Scope, body []byte) rpcOutcome {
	rctx, cancel := context.WithTimeout(ctx, p.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, worker+"/v1/partition", bytes.NewReader(body))
	if err != nil {
		return rpcOutcome{class: classFatal, err: fmt.Errorf("coord: worker %s: %w", worker, err)}
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := rpcScope.Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	if rid := server.RequestIDFromContext(ctx); rid != "" {
		// The worker adopts the coordinator's request ID, so both
		// processes' logs join on one value.
		req.Header.Set("X-Request-Id", rid)
	}
	start := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return rpcOutcome{class: classCtx, err: cerr}
		}
		return rpcOutcome{class: classTransient, err: fmt.Errorf("worker %s: %w", worker, err)}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return rpcOutcome{class: classCtx, err: cerr}
		}
		return rpcOutcome{class: classTransient, err: fmt.Errorf("worker %s: reading response: %w", worker, err)}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var st server.JobStatus
		if err := json.Unmarshal(payload, &st); err != nil || st.Result == nil {
			return rpcOutcome{class: classTransient, err: fmt.Errorf("worker %s: malformed 200 response", worker)}
		}
		if t := rpcScope.Tracer(); t != nil && len(st.Spans) > 0 {
			t.Ingest(rpcScope.TraceID(), st.Spans)
		}
		p.met.latency(time.Since(start).Seconds())
		return rpcOutcome{class: classOK, sol: st.Result}
	case http.StatusUnprocessableEntity:
		// Deterministically infeasible: the attempt seed produced no
		// feasible solution and never will, on any worker.
		return rpcOutcome{class: classInfeasible, err: &attemptError{msg: remoteMessage(worker, resp.StatusCode, payload)}}
	case http.StatusBadRequest:
		// The request itself is broken; every attempt would fail the
		// same way, so surface the worker's typed rejection.
		return rpcOutcome{class: classFatal, err: &server.JobFailure{Kind: server.KindMalformed, Msg: remoteMessage(worker, resp.StatusCode, payload)}}
	case http.StatusConflict:
		// circuit_unknown: the worker holds no circuit under the digest.
		return rpcOutcome{class: classUnknown, err: errors.New(remoteMessage(worker, resp.StatusCode, payload))}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return rpcOutcome{
			class: classTransient, retryAfter: parseRetryAfter(resp),
			err: errors.New(remoteMessage(worker, resp.StatusCode, payload)),
		}
	default:
		// 5xx, worker-side timeouts, unexpected statuses: worker-specific
		// until proven otherwise — retry on the next one.
		return rpcOutcome{class: classTransient, err: errors.New(remoteMessage(worker, resp.StatusCode, payload))}
	}
}

// remoteMessage renders a worker's error body (both the apiError and
// JobStatus failure schemas use the error/error_kind keys).
func remoteMessage(worker string, code int, payload []byte) string {
	var e struct {
		Error string `json:"error"`
		Kind  string `json:"error_kind"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		if e.Kind != "" {
			return fmt.Sprintf("worker %s: %s (%s)", worker, e.Error, e.Kind)
		}
		return fmt.Sprintf("worker %s: %s", worker, e.Error)
	}
	return fmt.Sprintf("worker %s: HTTP %d", worker, code)
}

func parseRetryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// backoff computes the wait before the next try: exponential in the
// try number, raised to the worker's Retry-After hint, capped at
// BackoffMax, plus a deterministic jitter (up to +50%) derived from
// the attempt index so synchronized retry bursts spread out without a
// randomness source that would vary across runs.
func (p *Pool) backoff(attempt, try int, retryAfter time.Duration) time.Duration {
	d := p.cfg.BackoffBase << uint(try)
	if retryAfter > d {
		d = retryAfter
	}
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	jitter := time.Duration((int64(attempt)*31+int64(try)*17)%16) * d / 32
	return d + jitter
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
