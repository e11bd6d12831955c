package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"fpgapart/internal/telemetry"
)

// Server metric names, complementing the engine vocabulary exported by
// internal/telemetry's bridge (fpgapart_carve_*, fpgapart_fm_*, ...).
const (
	metricRequestDuration = "fpgapart_http_request_duration_seconds"
	metricRequestsTotal   = "fpgapart_http_requests_total"
	metricAdmissionReject = "fpgapart_admission_rejects_total"
	metricQueueDepth      = "fpgapart_queue_depth"
	metricJobsInflight    = "fpgapart_jobs_inflight"
	metricWorkers         = "fpgapart_workers"
	metricWorkersBusy     = "fpgapart_workers_busy"
	metricJobsTotal       = "fpgapart_jobs_total"
	metricJobFailures     = "fpgapart_job_failures_total"
	metricJobsDegraded    = "fpgapart_jobs_degraded_total"
	metricCircuitHits     = "fpgapart_circuit_cache_hits_total"
)

// metricsBundle holds every pre-resolved series the request and job
// paths observe, so steady-state handling never creates series. The
// engine bridge rides along: every job's trace stream feeds it.
type metricsBundle struct {
	bridge *telemetry.Bridge

	reqLatency *telemetry.HistogramVec // {endpoint}
	reqTotal   *telemetry.CounterVec   // {endpoint, code}

	shedQueueFull *telemetry.Counter
	shedDraining  *telemetry.Counter

	jobsInflight *telemetry.Gauge
	workersBusy  *telemetry.Gauge

	jobsDone        *telemetry.Counter
	jobsFailed      *telemetry.Counter
	jobFailures     map[string]*telemetry.Counter // by error kind
	jobFailureOther *telemetry.Counter
	degraded        *telemetry.Counter

	circuitCacheHits *telemetry.Counter
}

func newMetricsBundle(reg *telemetry.Registry, workers int, queueDepth func() float64) *metricsBundle {
	m := &metricsBundle{
		bridge: telemetry.NewBridge(reg),
		reqLatency: reg.HistogramVec(metricRequestDuration,
			"HTTP request latency by endpoint pattern.", telemetry.LatencyBuckets(), "endpoint"),
		reqTotal: reg.CounterVec(metricRequestsTotal,
			"HTTP requests by endpoint pattern and status code.", "endpoint", "code"),
		jobsInflight: reg.Gauge(metricJobsInflight, "Jobs currently running on the worker pool."),
		workersBusy:  reg.Gauge(metricWorkersBusy, "Workers currently executing a job."),
		jobsDone:     reg.CounterVec(metricJobsTotal, "Completed jobs by outcome.", "outcome").With("done"),
		jobsFailed:   reg.CounterVec(metricJobsTotal, "Completed jobs by outcome.", "outcome").With("failed"),
		jobFailures:  make(map[string]*telemetry.Counter),
		degraded:     reg.Counter(metricJobsDegraded, "Jobs that completed degraded (contained worker panic)."),
		circuitCacheHits: reg.Counter(metricCircuitHits,
			"Requests whose circuit came parsed from the circuit cache; misses are the parse phase count."),
	}
	shed := reg.CounterVec(metricAdmissionReject, "Submissions rejected at admission, by reason.", "reason")
	m.shedQueueFull = shed.With("queue-full")
	m.shedDraining = shed.With("draining")
	failures := reg.CounterVec(metricJobFailures, "Failed jobs by error kind.", "kind")
	for _, kind := range []string{KindMalformed, KindInfeasible, KindTimeout, KindCanceled, KindInternal} {
		m.jobFailures[kind] = failures.With(kind)
	}
	m.jobFailureOther = failures.With("other")
	reg.Gauge(metricWorkers, "Size of the worker pool.").Set(int64(workers))
	reg.GaugeFunc(metricQueueDepth, "Jobs admitted but not yet running.", queueDepth)
	return m
}

// observeJobFailure bumps the failed-job counters for one error kind.
func (m *metricsBundle) observeJobFailure(kind string) {
	m.jobsFailed.Inc()
	c, ok := m.jobFailures[kind]
	if !ok {
		c = m.jobFailureOther
	}
	c.Inc()
}

// requestIDKey carries the per-request ID through handler contexts so
// job lifecycle logs can be joined back to the HTTP request that
// submitted them.
type requestIDKey struct{}

// requestID returns the request ID stored by instrument ("" outside a
// request context).
func requestID(ctx context.Context) string {
	v, _ := ctx.Value(requestIDKey{}).(string)
	return v
}

// RequestIDFromContext returns the request ID instrument stored in a
// handler's context ("" outside one). The coordinator uses it to
// forward the submitting request's ID to workers.
func RequestIDFromContext(ctx context.Context) string { return requestID(ctx) }

// ContextWithRequestID returns ctx carrying rid, in the slot
// RequestIDFromContext reads. The server stamps it onto the context it
// hands the Distribute hook.
func ContextWithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, rid)
}

// maxRequestIDLen bounds an inbound X-Request-Id before the server
// adopts it, so a hostile header cannot bloat logs.
const maxRequestIDLen = 64

// validRequestID accepts inbound IDs of sane length made of printable
// non-space ASCII (a header cannot carry control bytes into logs).
func validRequestID(rid string) bool {
	if rid == "" || len(rid) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(rid); i++ {
		if rid[i] <= ' ' || rid[i] > '~' {
			return false
		}
	}
	return true
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint observability
// envelope: a request ID (echoed in X-Request-Id and threaded through
// the context into job logs), a latency histogram observation and a
// request counter labeled with the final status. A request that
// arrives with a well-formed X-Request-Id keeps it — a coordinator's
// ID follows the job onto the worker's logs — otherwise the server
// mints a process-unique one. The endpoint label is the route
// pattern, never the raw path, so cardinality stays bounded.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	latency := s.met.reqLatency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if !validRequestID(rid) {
			rid = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", rid)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := s.clock.Now()
		h(rec, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid)))
		latency.Observe(s.clock.Now().Sub(start).Seconds())
		s.met.reqTotal.With(endpoint, strconv.Itoa(rec.code)).Inc()
	}
}
