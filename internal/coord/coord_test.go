package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/server"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/trace"
)

func circuitText(t *testing.T, cells int, seed int64) string {
	t.Helper()
	g, err := bench.Generate(bench.Params{Cells: cells, PrimaryIn: 10, PrimaryOut: 6, Seed: seed, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hypergraph.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// newEngine builds a real partitioning server (worker-side engine) and
// arranges its drain.
func newEngine(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s := server.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func newWorkerTS(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(telemetry.NewRegistry())
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// localResult runs the full request on a fresh local engine — the
// byte-identity reference every distribution test compares against.
func localResult(t *testing.T, req *server.JobRequest) *server.JobResult {
	t.Helper()
	eng := newEngine(t, server.Config{})
	res, err := eng.LocalAttempt()(context.Background(), req)
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	return res
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDistributeMatchesLocal(t *testing.T) {
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 5, Seed: 7}
	want := localResult(t, req)

	w1 := newWorkerTS(t, newEngine(t, server.Config{}))
	w2 := newWorkerTS(t, newEngine(t, server.Config{}))
	pool := newPool(t, Config{Workers: []string{w1.URL, w2.URL}})

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 5, Seed: 7})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("distributed result diverged from local run:\n got %s\nwant %s", g, w)
	}
	if n := pool.met.attempts.With(OutcomeOK).Value(); n != 5 {
		t.Fatalf("ok attempts = %d, want 5", n)
	}
}

func TestWorkerDeathResharded(t *testing.T) {
	// Worker B serves two requests and then dies mid-job (connections
	// torn down without a response). Its remaining attempts must
	// re-shard onto worker A and the result must stay byte-identical
	// to the local fixed-seed run.
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 6, Seed: 3}
	want := localResult(t, req)

	alive := newWorkerTS(t, newEngine(t, server.Config{}))
	engB := newEngine(t, server.Config{})
	var served atomic.Int64
	dying := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		engB.ServeHTTP(w, r)
	}))
	pool := newPool(t, Config{
		Workers:     []string{alive.URL, dying.URL},
		Tries:       3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 6, Seed: 3})
	if err != nil {
		t.Fatalf("distribute with dying worker: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("result diverged after worker death:\n got %s\nwant %s", g, w)
	}
	if pool.met.retries.Value() == 0 {
		t.Fatal("no retries recorded despite a dying worker")
	}
}

func TestRetryAfterHonored(t *testing.T) {
	// The worker sheds the first request with 429 + Retry-After; the
	// retry must wait at least the (BackoffMax-capped) hint and then
	// succeed on the same worker.
	eng := newEngine(t, server.Config{})
	var n atomic.Int64
	shed := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full, retry later","error_kind":"overload"}`)
			return
		}
		eng.ServeHTTP(w, r)
	}))
	pool := newPool(t, Config{
		Workers:     []string{shed.URL},
		Tries:       2,
		BackoffBase: time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})

	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 1, Seed: 1}
	start := time.Now()
	_, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 1, Seed: 1})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("retry after %s, want >= the capped Retry-After of 50ms", elapsed)
	}
	if pool.met.retries.Value() != 1 {
		t.Fatalf("retries = %d, want 1", pool.met.retries.Value())
	}
}

func TestInfeasibleIsFinal(t *testing.T) {
	// 422 is a deterministic outcome: the same seed fails the same way
	// on every worker, so it folds as a failed attempt with no retry
	// and no local fallback.
	var n atomic.Int64
	infeasible := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"kway: no feasible solution in 1 attempts","error_kind":"infeasible"}`)
	}))
	pool := newPool(t, Config{Workers: []string{infeasible.URL}, Tries: 3})
	pool.SetLocal(func(ctx context.Context, req *server.JobRequest) (*server.JobResult, error) {
		t.Error("local fallback invoked for a deterministic infeasible outcome")
		return nil, errors.New("unreachable")
	})

	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 2, Seed: 1}
	_, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 2, Seed: 1})
	var inf *kway.InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("error = %v, want *kway.InfeasibleError", err)
	}
	if inf.Attempts != 2 {
		t.Fatalf("infeasible after %d attempts, want 2", inf.Attempts)
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("worker saw %d requests, want exactly 2 (no retries)", got)
	}
}

func TestMalformedAbortsJob(t *testing.T) {
	malformed := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"line 2: bad cell","error_kind":"malformed"}`)
	}))
	pool := newPool(t, Config{Workers: []string{malformed.URL}, Tries: 3})

	req := &server.JobRequest{Circuit: "nonsense", Solutions: 2, Seed: 1}
	_, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 2, Seed: 1})
	var jf *server.JobFailure
	if !errors.As(err, &jf) || jf.Kind != server.KindMalformed {
		t.Fatalf("error = %v, want *server.JobFailure with kind %q", err, server.KindMalformed)
	}
}

func TestLocalFallbackByteIdentical(t *testing.T) {
	// Every worker is dead: the pool degrades to running attempts on
	// the local engine, and because the attempt→seed mapping is shared,
	// the result still matches the pure-local run exactly.
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 3, Seed: 5}
	want := localResult(t, req)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	pool := newPool(t, Config{
		Workers:     []string{dead.URL},
		Tries:       2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	pool.SetLocal(newEngine(t, server.Config{}).LocalAttempt())

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 3, Seed: 5})
	if err != nil {
		t.Fatalf("distribute with dead pool: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("fallback result diverged:\n got %s\nwant %s", g, w)
	}
	if pool.met.fallbacks.Value() != 3 {
		t.Fatalf("fallbacks = %d, want 3", pool.met.fallbacks.Value())
	}
}

func TestExhaustionWithoutFallbackFails(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	pool := newPool(t, Config{
		Workers:     []string{dead.URL},
		Tries:       2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 2, Seed: 1}
	_, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 2, Seed: 1})
	if err == nil {
		t.Fatal("want an error when the pool is exhausted and no local fallback is installed")
	}
	if pool.met.attempts.With(OutcomeExhausted).Value() == 0 {
		t.Fatal("no exhausted attempts recorded")
	}
}

func TestHedgedRequestWins(t *testing.T) {
	// Worker A stalls until the client gives up; the hedge fires after
	// HedgeAfter and worker B's response wins the race.
	eng := newEngine(t, server.Config{})
	straggler := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server re-arms client-disconnect
		// detection, then stall until the client gives up (with a timer
		// fallback so a missed cancellation can't wedge ts.Close).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(3 * time.Second):
		}
	}))
	fast := newWorkerTS(t, eng)
	pool := newPool(t, Config{
		Workers:        []string{straggler.URL, fast.URL},
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     20 * time.Millisecond,
	})

	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 1, Seed: 1}
	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 1, Seed: 1})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if got.DeviceCost <= 0 {
		t.Fatalf("bad hedged result: %+v", got)
	}
	if pool.met.hedges.Value() == 0 {
		t.Fatal("no hedges recorded despite a stalled primary")
	}
}

func TestResumeByteIdentical(t *testing.T) {
	// Interrupt-and-resume through the coordinator: a run resumed from
	// a mid-search checkpoint must report the byte-identical result of
	// the uninterrupted run (modulo the resumed_from_attempt marker).
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 6, Seed: 9}
	w1 := newWorkerTS(t, newEngine(t, server.Config{}))
	w2 := newWorkerTS(t, newEngine(t, server.Config{}))
	pool := newPool(t, Config{Workers: []string{w1.URL, w2.URL}})

	var cps []kway.SearchCheckpoint
	full, err := pool.Distribute(context.Background(), req, core.Options{
		Solutions: 6, Seed: 9,
		Checkpoint: func(cp kway.SearchCheckpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if len(cps) != 6 {
		t.Fatalf("checkpoints = %d, want 6", len(cps))
	}

	cp := cps[2] // folded=3, mid-search
	resumed, err := pool.Distribute(context.Background(), req, core.Options{
		Solutions: 6, Seed: 9, Resume: &cp,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.ResumedFromAttempt == nil || *resumed.ResumedFromAttempt != 3 {
		t.Fatalf("resumed_from_attempt = %v, want 3", resumed.ResumedFromAttempt)
	}
	resumed.ResumedFromAttempt = nil
	if g, w := mustJSON(t, resumed), mustJSON(t, full); g != w {
		t.Fatalf("resumed result diverged:\n got %s\nwant %s", g, w)
	}
}

// TestCoordinatorRecordsSearchPhase: a coordinator-mode job folds
// through the shared reducer, which emits the search phase event, so
// the coordinator's registry times the search like a local server's.
func TestCoordinatorRecordsSearchPhase(t *testing.T) {
	worker := newWorkerTS(t, newEngine(t, server.Config{}))
	pool := newPool(t, Config{Workers: []string{worker.URL}})
	reg := telemetry.NewRegistry()
	coordinator := newWorkerTS(t, newEngine(t, server.Config{Metrics: reg, Distribute: pool.Distribute}))

	body := mustJSON(t, server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 3, Seed: 7})
	resp, err := http.Post(coordinator.URL+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator job: HTTP %d", resp.StatusCode)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^fpgapart_phase_seconds_count\{phase="search"\} (\d+)$`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatalf("no search phase count in the coordinator's exposition:\n%s", sb.String())
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Fatalf("coordinator search phase count = %d, want >= 1", n)
	}
}

// reducerEvents keeps the events the reducer itself emits — solutions,
// checkpoints, resumes and the search phase — with durations zeroed:
// the sequence a coordinator and a local engine must agree on.
func reducerEvents(rec *trace.Recorder) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindSolution, e.Kind == trace.KindCheckpoint, e.Kind == trace.KindResume,
			e.Kind == trace.KindPhase && e.Phase == trace.PhaseSearch:
			e.Dur = 0
			out = append(out, e)
		}
	}
	return out
}

// TestReducerMatchesLocal is the differential check behind the claim
// that coordinator and local checkpoints are interchangeable: the same
// search folded locally and through Distribute emits JSON-equal
// checkpoints and an equal reducer event sequence, uninterrupted and
// resumed, and a local checkpoint resumes through the pool to the
// local result.
func TestReducerMatchesLocal(t *testing.T) {
	req := &server.JobRequest{Circuit: circuitText(t, 400, 1), Solutions: 4, Seed: 7}
	want := localResult(t, req)
	if want.Feasible != req.Solutions {
		t.Fatalf("fixture: %d of %d attempts feasible, want all", want.Feasible, req.Solutions)
	}
	g, err := hypergraph.Read(strings.NewReader(req.Circuit))
	if err != nil {
		t.Fatal(err)
	}
	w1 := newWorkerTS(t, newEngine(t, server.Config{}))
	w2 := newWorkerTS(t, newEngine(t, server.Config{}))
	pool := newPool(t, Config{Workers: []string{w1.URL, w2.URL}})

	type run struct {
		res *server.JobResult
		cps []kway.SearchCheckpoint
		evs []trace.Event
	}
	fold := func(distributed bool, resume *kway.SearchCheckpoint) run {
		t.Helper()
		var r run
		rec := &trace.Recorder{}
		// Events ride on armed spans, which also time the search phase.
		tracer := span.NewTracer(span.Options{Process: "coord-test"})
		opts := core.Options{
			Solutions: req.Solutions, Seed: req.Seed, Resume: resume,
			Checkpoint: func(cp kway.SearchCheckpoint) { r.cps = append(r.cps, cp) },
			Spans:      tracer.Root(span.DeriveTraceID("reducer", req.Seed, req.Solutions), 0).WithSink(rec),
		}
		var err error
		if distributed {
			r.res, err = pool.Distribute(context.Background(), req, opts)
		} else {
			_, err = core.PartitionContext(context.Background(), g, opts)
		}
		if err != nil {
			t.Fatalf("distributed=%v: %v", distributed, err)
		}
		r.evs = reducerEvents(rec)
		searches := 0
		for _, e := range r.evs {
			if e.Kind == trace.KindPhase {
				searches++
			}
		}
		if searches != 1 {
			t.Fatalf("distributed=%v: %d search phase events, want 1", distributed, searches)
		}
		return r
	}
	same := func(what string, coordinator, local any) {
		t.Helper()
		if c, l := mustJSON(t, coordinator), mustJSON(t, local); c != l {
			t.Fatalf("%s diverged:\ncoordinator %s\nlocal       %s", what, c, l)
		}
	}

	local, coord := fold(false, nil), fold(true, nil)
	same("checkpoints", coord.cps, local.cps)
	same("reducer events", coord.evs, local.evs)

	cp := local.cps[1]
	localResumed, coordResumed := fold(false, &cp), fold(true, &cp)
	same("resumed checkpoints", coordResumed.cps, localResumed.cps)
	same("resumed reducer events", coordResumed.evs, localResumed.evs)
	if from := coordResumed.res.ResumedFromAttempt; from == nil || *from != cp.Folded {
		t.Fatalf("resumed_from_attempt = %v, want %d", from, cp.Folded)
	}
	coordResumed.res.ResumedFromAttempt = nil
	same("result of a local checkpoint resumed through the pool", coordResumed.res, want)
}

// A worker response may name any trace in its spans (a stale or buggy
// worker). The coordinator files only the spans of the request's own
// trace: a foreign one would plant spans in another job's trace and,
// with the collector's bounded trace count, could evict live jobs.
func TestIngestOnlyOwnTrace(t *testing.T) {
	eng := newEngine(t, server.Config{})
	foreign := span.DeriveTraceID("other-job", 1, 1)
	worker := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		eng.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			// A circuit_unknown miss goes back as it came, so the
			// coordinator re-sends the text.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		var st server.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Errorf("worker answered %d: %v", rec.Code, err)
		}
		st.Spans = append(st.Spans, span.Span{Trace: foreign, ID: 1, Name: "job", Process: "stale"})
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&st)
	}))
	pool := newPool(t, Config{Workers: []string{worker.URL}})
	tracer := span.NewTracer(span.Options{Process: "coord"})
	own := span.DeriveTraceID("job", 7, 2)
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 2, Seed: 7}
	if _, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 2, Seed: 7, Spans: tracer.Root(own, 0)}); err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if spans, _ := tracer.Collector().Trace(foreign); spans != nil {
		t.Fatalf("coordinator ingested %d spans of a foreign trace", len(spans))
	}
	spans, _ := tracer.Collector().Trace(own)
	stitched := 0
	for _, s := range spans {
		if s.Process != "coord" {
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatal("no worker span was stitched into the job's own trace")
	}
}

func TestNewValidatesWorkers(t *testing.T) {
	ok := []string{"http://a:1"}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no workers", Config{}, "at least one worker"},
		{"not a URL", Config{Workers: []string{"not-a-url"}}, "not an http(s) URL"},
		{"negative tries", Config{Workers: ok, Tries: -1}, "negative Tries"},
		{"negative attempt timeout", Config{Workers: ok, AttemptTimeout: -time.Second}, "negative AttemptTimeout"},
		{"negative hedge delay", Config{Workers: ok, HedgeAfter: -time.Second}, "negative HedgeAfter"},
	} {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	p, err := New(Config{Workers: []string{" http://a:1/ "}})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Workers[0] != "http://a:1" {
		t.Fatalf("worker not normalized: %q", p.cfg.Workers[0])
	}
}

// textBodies counts the requests a worker handler receives that carry
// the circuit text, and the 409 circuit_unknown answers it gives.
type textBodies struct {
	h           http.Handler
	texts, cold atomic.Int64
}

func (c *textBodies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req server.JobRequest
	if json.Unmarshal(body, &req) == nil && req.Circuit != "" {
		c.texts.Add(1)
	}
	r.Body = io.NopCloser(strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	if rec.Code == http.StatusConflict {
		c.cold.Add(1)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// Attempts travel by digest: each cold worker answers its first
// attempt circuit_unknown and gets the text exactly once, and every
// later attempt resolves the digest from its cache.
func TestColdWorkerGetsTextOnce(t *testing.T) {
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 6, Seed: 7}
	want := localResult(t, req)
	w1 := &textBodies{h: newEngine(t, server.Config{})}
	w2 := &textBodies{h: newEngine(t, server.Config{})}
	pool := newPool(t, Config{
		Workers:     []string{newWorkerTS(t, w1).URL, newWorkerTS(t, w2).URL},
		Concurrency: 1,
	})

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 6, Seed: 7})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("result diverged from local run:\n got %s\nwant %s", g, w)
	}
	for i, w := range []*textBodies{w1, w2} {
		if cold, texts := w.cold.Load(), w.texts.Load(); cold != 1 || texts != 1 {
			t.Fatalf("worker %d: %d circuit_unknown answers and %d text bodies, want 1 and 1", i, cold, texts)
		}
	}
	if n := pool.met.resends.Value(); n != 2 {
		t.Fatalf("resends = %d, want 2", n)
	}
	if n := pool.met.retries.Value(); n != 0 {
		t.Fatalf("retries = %d, want 0: a re-send stays within its try", n)
	}
}

// A worker restarted behind the same URL forgets every circuit. Here it
// restarts after each answer, so every attempt misses, is re-sent with
// the text, and the result is still the local one.
func TestRestartedWorkerByteIdentical(t *testing.T) {
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 4, Seed: 11}
	want := localResult(t, req)
	var eng atomic.Pointer[server.Server]
	eng.Store(newEngine(t, server.Config{}))
	restarting := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		eng.Load().ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			eng.Store(newEngine(t, server.Config{}))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	pool := newPool(t, Config{Workers: []string{restarting.URL}, Concurrency: 1})

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 4, Seed: 11})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("result diverged across worker restarts:\n got %s\nwant %s", g, w)
	}
	if n := pool.met.resends.Value(); n != 4 {
		t.Fatalf("resends = %d, want one per attempt (4)", n)
	}
}

// A hedge leg handles its own miss: the stalled primary never answers,
// and the cold secondary gets the text and wins.
func TestHedgeToColdSecondary(t *testing.T) {
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 1, Seed: 1}
	want := localResult(t, req)
	straggler := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(3 * time.Second):
		}
	}))
	cold := &textBodies{h: newEngine(t, server.Config{})}
	pool := newPool(t, Config{
		Workers:        []string{straggler.URL, newWorkerTS(t, cold).URL},
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     20 * time.Millisecond,
	})

	got, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 1, Seed: 1})
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("hedged result diverged:\n got %s\nwant %s", g, w)
	}
	if pool.met.hedges.Value() != 1 || pool.met.resends.Value() != 1 || cold.texts.Load() != 1 {
		t.Fatalf("hedges=%d resends=%d texts=%d, want 1 each",
			pool.met.hedges.Value(), pool.met.resends.Value(), cold.texts.Load())
	}
}

// A worker that answers circuit_unknown even to the text is broken, not
// cold: each try re-sends once, then counts as a transient failure, and
// the attempt exhausts its tries instead of looping.
func TestCircuitUnknownToTextIsTransient(t *testing.T) {
	var n atomic.Int64
	amnesiac := newWorkerTS(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error":"circuit digest not in this server's circuit cache","error_kind":"circuit_unknown"}`)
	}))
	pool := newPool(t, Config{
		Workers:     []string{amnesiac.URL},
		Tries:       2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	req := &server.JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 1, Seed: 1}
	_, err := pool.Distribute(context.Background(), req, core.Options{Solutions: 1, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "circuit_unknown") {
		t.Fatalf("error = %v, want exhaustion naming circuit_unknown", err)
	}
	if got := n.Load(); got != 4 {
		t.Fatalf("worker saw %d requests, want 4 (2 tries, each re-sent once)", got)
	}
	if pool.met.resends.Value() != 2 || pool.met.attempts.With(OutcomeExhausted).Value() != 1 {
		t.Fatalf("resends=%d exhausted=%d, want 2 and 1",
			pool.met.resends.Value(), pool.met.attempts.With(OutcomeExhausted).Value())
	}
}
