package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/netlist"
	"fpgapart/internal/span"
	"fpgapart/internal/techmap"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
)

// JobRequest is the submission schema for POST /v1/jobs and the JSON
// form of POST /v1/partition.
type JobRequest struct {
	// ID is an optional client-chosen idempotency key: re-posting a
	// known ID returns the existing job instead of re-running it.
	ID string `json:"id,omitempty"`
	// Circuit is the circuit source text; Format selects the dialect:
	// "clb" (mapped circuit, default) or "gnl" (gate-level netlist,
	// technology-mapped before partitioning).
	Circuit string `json:"circuit"`
	Format  string `json:"format,omitempty"`
	// CircuitDigest is the lowercase hex SHA-256 of the exact circuit
	// text (see CircuitDigest). Sent with Circuit, it must match; sent
	// alone, the server takes the circuit from its circuit cache and
	// answers 409 circuit_unknown when it does not hold it, so the
	// client re-sends the text.
	CircuitDigest string `json:"circuit_digest,omitempty"`
	// Threshold is the replication threshold T (see
	// core.Options.Threshold: null means T = 1, 0 maximum replication,
	// -1 disables replication). Solutions, Seed and MaxStale mirror the
	// kpart flags.
	Threshold *int  `json:"threshold,omitempty"`
	Solutions int   `json:"solutions,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	MaxStale  int   `json:"max_stale,omitempty"`
	// Multilevel routes large carve subproblems through the multilevel
	// V-cycle (see core.Options.Multilevel). Off by default.
	Multilevel bool `json:"multilevel,omitempty"`
	// RefineWorkers selects the FM refinement engine: values >= 2 run
	// the deterministic parallel sub-round engine with that many
	// proposal workers on states at or above fm's parallel cutoff and
	// the serial engine on smaller ones, 0 or 1 the classic serial
	// engine everywhere (see core.Options.RefineWorkers and
	// fm.Config.RefineWorkers).
	RefineWorkers int `json:"refine_workers,omitempty"`
	// TimeoutMS bounds the search wall clock (0 = server default,
	// capped at the server maximum; negative is malformed).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Board, when non-empty, is a board topology spec — crossbar:N[:CAP],
	// linear:N[:CAP] or mesh:RxC[:CAP] — on whose slots every solution
	// is placed and scored by its hop-weighted interconnect (see
	// core.Options.Board). Only
	// inline specs are accepted; board-description files stay a CLI
	// feature because an HTTP request must not name server-side paths.
	Board string `json:"board,omitempty"`
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Recovered marks a job replayed from the durable store after a
	// restart; it persists through the job's remaining lifecycle.
	Recovered bool       `json:"recovered,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
	ErrorKind string     `json:"error_kind,omitempty"`
	// Spans carries this process's recorded spans for the job, returned
	// only on synchronous responses whose request arrived with a W3C
	// traceparent header — the coordinator ingests them to stitch one
	// cross-process trace.
	Spans []span.Span `json:"spans,omitempty"`
}

// JobResult is the solution summary, including the degradation
// contract: Degraded means at least one solution attempt died to a
// contained panic and the result is the deterministic best of the
// survivors.
type JobResult struct {
	Circuit         string  `json:"circuit"`
	K               int     `json:"k"`
	DeviceCost      float64 `json:"device_cost"`
	AvgCLBUtil      float64 `json:"avg_clb_util"`
	AvgIOBUtil      float64 `json:"avg_iob_util"`
	ReplicatedCells int     `json:"replicated_cells"`
	SourceCells     int     `json:"source_cells"`
	Feasible        int     `json:"feasible"`
	Failed          int     `json:"failed"`
	Stopped         string  `json:"stopped,omitempty"`
	Board           string  `json:"board,omitempty"`
	TopoCost        *int    `json:"topo_cost,omitempty"`
	Degraded        bool    `json:"degraded"`
	Panicked        int     `json:"panicked,omitempty"`
	PanickedSeeds   []int64 `json:"panicked_seeds,omitempty"`
	// ResumedFromAttempt is set when the search resumed from a durable
	// checkpoint: the attempt index the resumed fold restarted at.
	ResumedFromAttempt *int          `json:"resumed_from_attempt,omitempty"`
	Parts              []PartSummary `json:"parts"`
}

// PartSummary describes one part of the solution.
type PartSummary struct {
	Device    string `json:"device"`
	CLBs      int    `json:"clbs"`
	Terminals int    `json:"terminals"`
	Cells     int    `json:"cells"`
	Replicas  int    `json:"replicas"`
}

// ResultJSON renders a partition result in the JobResult schema, the
// one result schema of both kpartd responses and kpart -json. board is
// the board the search ran on (nil for the flat objective).
func ResultJSON(g *hypergraph.Graph, res core.Result, board *topology.Board) *JobResult {
	out := &JobResult{
		Circuit:         g.Name,
		K:               res.Summary.K(),
		DeviceCost:      res.Summary.DeviceCost(),
		AvgCLBUtil:      res.Summary.AvgCLBUtil(),
		AvgIOBUtil:      res.Summary.AvgIOBUtil(),
		ReplicatedCells: res.Summary.ReplicatedCells(),
		SourceCells:     res.SourceCells,
		Feasible:        res.Feasible,
		Failed:          res.Failed,
		Stopped:         res.Stopped,
		Degraded:        res.Degraded,
		Panicked:        res.Panicked,
		PanickedSeeds:   res.PanickedSeeds,
	}
	if res.Summary.HasTopo && board != nil {
		out.Board = board.Name
		topo := res.Summary.TopoCost
		out.TopoCost = &topo
	}
	if res.Resumed {
		from := res.ResumedFrom
		out.ResumedFromAttempt = &from
	}
	// The summary rows, not the part graphs, size the parts: an
	// Engine.Search result has no graphs, and verify.Partition holds the
	// rows to the graphs' values.
	for _, p := range res.Summary.Parts {
		out.Parts = append(out.Parts, PartSummary{
			Device: p.Device.Name, CLBs: p.CLBs,
			Terminals: p.Terminals, Cells: p.Cells, Replicas: p.ReplicatedCells,
		})
	}
	return out
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobGet))
	s.mux.HandleFunc("POST /v1/partition", s.instrument("/v1/partition", s.handleSync))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	}))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/buildinfo", s.instrument("/debug/buildinfo", handleBuildInfo))
	s.mux.HandleFunc("GET /debug/trace/{job}", s.instrument("/debug/trace/{job}", s.handleTraceGet))
	s.mux.HandleFunc("GET /debug/flightrecorder", s.instrument("/debug/flightrecorder", s.handleFlightRecorder))
	if s.cfg.EnablePprof {
		// pprof handlers stay uninstrumented: profile endpoints block for
		// their sampling window and would dominate the latency histogram.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// readyzStatus is the JSON body of GET /readyz: load balancers key on
// the status code, operators read the queue depth from the body.
type readyzStatus struct {
	Ready      bool `json:"ready"`
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queue_depth"`
}

// handleReadyz reports readiness: 200 while accepting jobs, 503 during
// drain, always with the current queue depth in the body.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, readyzStatus{Ready: ready, Draining: !ready, QueueDepth: len(s.queue)})
}

// handleMetrics serves the registry in Prometheus text exposition
// format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WriteText(w)
}

// handleBuildInfo dumps the module and VCS metadata baked into the
// binary, so an operator can tie a running instance to a commit.
func handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no build info", Kind: KindNotFound})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, info.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"error_kind,omitempty"`
}

// muxErrorWriter rewrites the text/plain 404 and 405 bodies the
// ServeMux generates itself (unknown path, wrong verb on a known
// pattern) into the apiError JSON schema, so every non-2xx response on
// the API carries a typed error kind. Handler-written JSON errors pass
// through untouched — the rewrite triggers only when the Content-Type
// at WriteHeader time is not application/json.
type muxErrorWriter struct {
	http.ResponseWriter
	suppress bool
}

func (w *muxErrorWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.suppress = true
		kind, msg := KindNotFound, "unknown endpoint"
		if code == http.StatusMethodNotAllowed {
			kind, msg = KindMethodNotAllowed, "method not allowed"
		}
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		json.NewEncoder(w.ResponseWriter).Encode(apiError{Error: msg, Kind: kind})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *muxErrorWriter) Write(b []byte) (int, error) {
	if w.suppress {
		// Swallow the mux's plain-text body; the JSON replacement is
		// already written.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// parseRequest turns a JobRequest into an admitted job's inputs.
// Parse failures return a *textparse.ParseError for the 400 path,
// with line/column context intact.
func (s *Server) parseRequest(req *JobRequest) (*hypergraph.Graph, core.Options, time.Duration, error) {
	if req.TimeoutMS < 0 {
		return nil, core.Options{}, 0, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	g, err := s.parseCircuit(req)
	if err != nil {
		return nil, core.Options{}, 0, err
	}
	opts := core.Options{
		Threshold:     req.Threshold,
		Solutions:     req.Solutions,
		Seed:          req.Seed,
		MaxStale:      req.MaxStale,
		Multilevel:    req.Multilevel,
		RefineWorkers: req.RefineWorkers,
		Inject:        s.cfg.Inject,
	}
	if req.Board != "" {
		// ParseSpec only — never FromArg: a request must not be able to
		// point the server at a filesystem path.
		b, err := topology.ParseSpec(req.Board)
		if err != nil {
			return nil, core.Options{}, 0, err
		}
		opts.Board = b
	}
	timeout := s.cfg.DefaultTimeout
	switch {
	case req.TimeoutMS > s.cfg.MaxTimeout.Milliseconds():
		// Capped before the conversion, which overflows for a large
		// enough request.
		timeout = s.cfg.MaxTimeout
	case req.TimeoutMS > 0:
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return g, opts, min(timeout, s.cfg.MaxTimeout), nil
}

// parseCircuit returns the request's circuit graph from the server's
// circuit cache, parsing it under the parsers' default limits on a
// miss. The cache is keyed by the text's digest: a request carrying
// only circuit_digest resolves it from the cache or fails with
// errCircuitUnknown, and a request carrying both must agree. Either way
// req.Circuit ends up holding the cached text, so everything after
// admission sees an ordinary request. Only a parse that ran is observed
// in the parse phase histogram; a hit counts in
// fpgapart_circuit_cache_hits_total instead.
func (s *Server) parseCircuit(req *JobRequest) (*hypergraph.Graph, error) {
	key := circuitKey{format: req.Format}
	switch req.Format {
	case "", "clb":
		key.format = "clb"
	case "gnl":
		// Packing is seeded, so the seed selects the mapped graph.
		key.seed = req.Seed
	default:
		return nil, fmt.Errorf("unknown format %q (want \"clb\" or \"gnl\")", req.Format)
	}
	if req.CircuitDigest != "" {
		b, err := hex.DecodeString(req.CircuitDigest)
		if err != nil || len(b) != sha256.Size {
			return nil, fmt.Errorf("circuit_digest %q is not a hex SHA-256", req.CircuitDigest)
		}
		copy(key.digest[:], b)
	}
	parse := func(text string) (*hypergraph.Graph, error) {
		start := s.clock.Now()
		defer func() {
			s.met.bridge.Event(trace.Event{
				Kind: trace.KindPhase, Attempt: -1,
				Phase: trace.PhaseParse, Dur: s.clock.Now().Sub(start),
			})
		}()
		if key.format == "clb" {
			return hypergraph.Read(strings.NewReader(text))
		}
		n, err := netlist.Read(strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		m, err := techmap.Map(n, techmap.Options{Seed: req.Seed})
		if err != nil {
			return nil, err
		}
		return m.Graph, nil
	}
	if req.Circuit == "" && req.CircuitDigest != "" {
		parse = nil // digest only: a cache miss is errCircuitUnknown
	} else {
		sum := sha256.Sum256([]byte(req.Circuit))
		if req.CircuitDigest != "" && sum != key.digest {
			return nil, fmt.Errorf("circuit_digest %s does not match the circuit text (SHA-256 %x)", req.CircuitDigest, sum)
		}
		key.digest = sum
	}
	g, text, hit, err := s.circuits.graph(key, req.Circuit, parse)
	if err != nil {
		return nil, err
	}
	req.Circuit = text
	if hit {
		s.met.circuitCacheHits.Inc()
	}
	return g, nil
}

// maxRequestBytes bounds a request body. It is a parser limit, like
// hypergraph.Limits and netlist.Limits, set above any circuit their
// defaults admit in practice: a 10⁵-cell .clb is about 7 MB of text, so
// the default cap of 2²⁰ cells is reached near 75 MB.
const maxRequestBytes = 256 << 20

// decodeRequest reads the request body into a JobRequest. A JSON body
// (Content-Type application/json or a body starting with '{') uses the
// JobRequest schema; anything else is treated as raw circuit text with
// parameters from the query string — so a CI smoke test can POST a
// .clb file directly with curl --data-binary. A body over
// maxRequestBytes fails with *http.MaxBytesError, before any of it is
// read when its declared length is already over.
func decodeRequest(w http.ResponseWriter, r *http.Request) (*JobRequest, error) {
	if r.ContentLength > maxRequestBytes {
		return nil, &http.MaxBytesError{Limit: maxRequestBytes}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, err
	}
	ct := r.Header.Get("Content-Type")
	isJSON := strings.HasPrefix(ct, "application/json") ||
		(ct == "" && len(body) > 0 && body[0] == '{')
	if isJSON {
		req := new(JobRequest)
		if err := json.Unmarshal(body, req); err != nil {
			return nil, fmt.Errorf("invalid JSON body: %w", err)
		}
		return req, nil
	}
	req := &JobRequest{Circuit: string(body)}
	q := r.URL.Query()
	req.ID = q.Get("id")
	req.Format = q.Get("format")
	req.Board = q.Get("board")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", v)
		}
		req.Seed = n
	}
	for _, p := range []struct {
		key string
		dst *int
	}{{"solutions", &req.Solutions}, {"max_stale", &req.MaxStale}, {"refine_workers", &req.RefineWorkers}} {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", p.key, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("threshold"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q", v)
		}
		req.Threshold = &n
	}
	if v := q.Get("multilevel"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("bad multilevel %q", v)
		}
		req.Multilevel = b
	}
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad timeout_ms %q", v)
		}
		req.TimeoutMS = n
	}
	return req, nil
}

// retryAfter is the Retry-After hint, in seconds, of a 429 response.
const retryAfter = "1"

// admissionError writes the non-202 admission outcomes.
func (s *Server) admissionError(w http.ResponseWriter, status int) {
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, status, apiError{Error: "job queue full, retry later", Kind: KindOverload})
	case http.StatusServiceUnavailable:
		writeJSON(w, status, apiError{Error: "server is draining", Kind: KindDraining})
	default:
		writeJSON(w, status, apiError{Error: http.StatusText(status), Kind: KindInternal})
	}
}

// parseFailure writes the response for a request that failed to
// decode or parse: 409 circuit_unknown for a digest this server does
// not hold, 413 for a body over maxRequestBytes, otherwise 400 with
// the parser's line/column context. The last two are typed malformed,
// since the body cap is a parser limit.
func parseFailure(w http.ResponseWriter, err error) {
	if errors.Is(err, errCircuitUnknown) {
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error(), Kind: KindCircuitUnknown})
		return
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, apiError{Error: err.Error(), Kind: KindMalformed})
}

// handleSubmit admits an asynchronous job: 202 with the job status on
// admission, 200 when the ID is already known (idempotent retry), 400
// on malformed input, 409 on an unknown circuit digest, 413 on an
// oversized body, 429 when the queue is full, 503 when draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		parseFailure(w, err)
		return
	}
	g, opts, timeout, err := s.parseRequest(req)
	if err != nil {
		parseFailure(w, err)
		return
	}
	tid, parent, _ := span.ParseTraceparent(r.Header.Get("traceparent"))
	j, status := s.submit(requestID(r.Context()), tid, parent, req, g, opts, timeout)
	if j == nil {
		s.admissionError(w, status)
		return
	}
	writeJSON(w, status, j.status())
}

// handleJobGet is the retry-safe result lookup.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job", Kind: KindNotFound})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleSync admits a job and waits for it, mapping the job's failure
// kind to an HTTP status. If the client goes away first the job is
// canceled at its next deterministic checkpoint. A request that
// arrived with a traceparent header gets the job's recorded spans in
// the response, so the caller can stitch them into its own trace.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		parseFailure(w, err)
		return
	}
	g, opts, timeout, err := s.parseRequest(req)
	if err != nil {
		parseFailure(w, err)
		return
	}
	tid, parent, traced := span.ParseTraceparent(r.Header.Get("traceparent"))
	j, status := s.submit(requestID(r.Context()), tid, parent, req, g, opts, timeout)
	if j == nil {
		s.admissionError(w, status)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		<-j.done
	}
	st := j.status()
	if traced {
		// Return the subtree under the job's own root span — exactly
		// this job's spans, even when other work shares the trace.
		jt, root := j.traceRef()
		if !jt.IsZero() && root != 0 {
			st.Spans = s.cfg.Tracer.Collector().Subtree(jt, root)
		}
	}
	if st.State == StateDone {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, syncFailureStatus(st.ErrorKind), st)
}

// traceStatus is the JSON body of GET /debug/trace/{job}: the job's
// span forest, cross-process when worker spans were ingested.
type traceStatus struct {
	Job   string       `json:"job"`
	Trace span.TraceID `json:"trace"`
	// Dropped counts spans lost to the per-trace retention bound.
	Dropped int          `json:"dropped,omitempty"`
	Spans   int          `json:"spans"`
	Tree    []*span.Node `json:"tree"`
}

// handleTraceGet serves one job's span tree as JSON.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("job"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job", Kind: KindNotFound})
		return
	}
	tid, _ := j.traceRef()
	if tid.IsZero() {
		writeJSON(w, http.StatusNotFound, apiError{Error: "job has not started; no trace yet", Kind: KindNotFound})
		return
	}
	spans, dropped := s.cfg.Tracer.Collector().Trace(tid)
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no spans recorded for job", Kind: KindNotFound})
		return
	}
	writeJSON(w, http.StatusOK, traceStatus{
		Job: j.id, Trace: tid, Dropped: dropped, Spans: len(spans), Tree: span.Tree(spans),
	})
}

// flightStatus is the JSON body of GET /debug/flightrecorder: the
// last-N completed spans of this process, oldest first.
type flightStatus struct {
	Process string      `json:"process"`
	Total   uint64      `json:"total"`
	Spans   []span.Span `json:"spans"`
}

// handleFlightRecorder serves the process's bounded flight-recorder
// ring — the always-on "what was this process just doing" view.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	spans, total := s.cfg.Tracer.Flight().Snapshot()
	writeJSON(w, http.StatusOK, flightStatus{Process: s.cfg.Tracer.Process(), Total: total, Spans: spans})
}

func syncFailureStatus(kind string) int {
	switch kind {
	case KindMalformed:
		return http.StatusBadRequest
	case KindInfeasible:
		return http.StatusUnprocessableEntity
	case KindTimeout:
		return http.StatusGatewayTimeout
	case KindCanceled:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
