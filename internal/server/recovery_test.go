package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/span"
)

func mustJSONString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newBody returns a fresh reader, or nil for an empty body.
func newBody(s string) io.Reader {
	if s == "" {
		return nil
	}
	return strings.NewReader(s)
}

// filler reads an endless run of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// oversizedRequest builds a POST whose body is one byte over
// maxRequestBytes, streamed rather than held in memory.
func oversizedRequest(url string) (*http.Request, error) {
	req, err := http.NewRequest("POST", url, io.LimitReader(filler('x'), maxRequestBytes+1))
	if err != nil {
		return nil, err
	}
	req.ContentLength = maxRequestBytes + 1
	req.Header.Set("Content-Type", "text/plain")
	return req, nil
}

// A body one byte over the bound is refused on both submission
// endpoints with 413, typed malformed like any other parser limit.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs", "/v1/partition"} {
		req, err := oversizedRequest(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var e apiError
		err = decodeJSONBody(resp, &e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Kind != KindMalformed {
			t.Fatalf("%s: %d %+v, want 413 %s", path, resp.StatusCode, e, KindMalformed)
		}
	}
}

func decodeJSONBody(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	s, _, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDrainRecoverRestart is the durable-drain regression: a drain
// that cuts jobs before they produce anything must leave them
// incomplete in the store, and a restarted server must replay them —
// flagged "recovered" — to the byte-identical fixed-seed result.
func TestDrainRecoverRestart(t *testing.T) {
	dir := t.TempDir()
	circuit := circuitText(t, 120, 1)
	running := JobRequest{ID: "job-running", Circuit: circuit, Solutions: 4, Seed: 2}
	queued := JobRequest{ID: "job-queued", Circuit: circuit, Solutions: 3, Seed: 5}

	// Life 1: one worker, every attempt stalls long enough that nothing
	// folds before the drain cuts the base context.
	store1 := openStore(t, dir)
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 2*time.Second))
	s1 := New(Config{Workers: 1, Store: store1, Inject: plan, DefaultTimeout: time.Minute})
	for _, req := range []JobRequest{running, queued} {
		req := req
		g, opts, timeout, err := s1.parseRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		if j, status := s1.submit("t", span.TraceID{}, 0, &req, g, opts, timeout); j == nil {
			t.Fatalf("submit %s: %d", req.ID, status)
		}
	}
	// Wait until the first job is actually running (its durable state
	// record lands), so the drain interrupts one running and one queued
	// job — the two recovery paths.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec := store1.Job("job-running"); rec != nil && rec.State == jobstore.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the running state in the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Shutdown(cut) // immediate deadline: cancels the base context
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Both jobs must have survived as incomplete records (the drain
	// interruption is deliberately not a terminal failure).
	store2, recovered, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, rec := range recovered {
		if !rec.Complete() {
			incomplete++
		}
	}
	if incomplete != 2 {
		t.Fatalf("incomplete jobs after drain = %d, want 2", incomplete)
	}

	// Life 2: no fault injection, same store. Both jobs are re-enqueued
	// ahead of new work and run to completion with the recovered flag.
	s2 := New(Config{Workers: 1, Store: store2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
		store2.Close()
	})
	for _, req := range []JobRequest{running, queued} {
		j, ok := s2.lookup(req.ID)
		if !ok {
			t.Fatalf("job %s not recovered into the job table", req.ID)
		}
		select {
		case <-j.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("recovered job %s did not finish", req.ID)
		}
		st := j.status()
		if st.State != StateDone {
			t.Fatalf("recovered job %s: state %q (%s/%s), want done", req.ID, st.State, st.Error, st.ErrorKind)
		}
		if !st.Recovered {
			t.Fatalf("job %s lost its recovered flag: %+v", req.ID, st)
		}

		// Byte-identity: the recovered run must match a fresh fixed-seed
		// run of the same request (the resume marker aside).
		ref := New(Config{})
		want, err := ref.LocalAttempt()(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		got := *st.Result
		got.ResumedFromAttempt = nil
		if g, w := mustJSONString(t, &got), mustJSONString(t, want); g != w {
			t.Fatalf("recovered result for %s diverged:\n got %s\nwant %s", req.ID, g, w)
		}

		// Checkpoint identity pins the trace: the resumed run derives
		// the same trace ID the original life did, so both lives' spans
		// belong to one logical trace.
		jt, root := j.traceRef()
		if want := span.DeriveTraceID(req.ID, req.Seed, req.Solutions); jt != want {
			t.Fatalf("recovered job %s trace %s, want the checkpoint-derived %s", req.ID, jt, want)
		}
		if root == 0 {
			t.Fatalf("recovered job %s has no root span", req.ID)
		}
		spans, _ := s2.cfg.Tracer.Collector().Trace(jt)
		names := make(map[string]bool)
		for _, sp := range spans {
			names[sp.Name] = true
		}
		if !names["job"] || !names["search"] {
			t.Fatalf("recovered job %s trace lacks the core spans (have %v)", req.ID, names)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ref.Shutdown(ctx)
		cancel()
	}
}

// TestRecoveredCompletedJobQueryable: finished jobs survive a restart
// as queryable results — GET /v1/jobs/{id} keeps working across
// process lives.
func TestRecoveredCompletedJobQueryable(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{ID: "job-done", Circuit: circuitText(t, 120, 1), Solutions: 2, Seed: 1}

	store1 := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Store: store1})
	resp, _ := postJSON(t, ts1.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	first := waitDone(t, ts1.URL, req.ID)
	if first.State != StateDone {
		t.Fatalf("job failed: %+v", first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	s1.Shutdown(ctx)
	cancel()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	_, ts2 := newTestServer(t, Config{Store: store2})
	code, st := getStatus(t, ts2.URL+"/v1/jobs/"+req.ID)
	if code != http.StatusOK {
		t.Fatalf("GET recovered job: %d", code)
	}
	if st.State != StateDone || !st.Recovered || st.Result == nil {
		t.Fatalf("recovered completed job: %+v", st)
	}
	if st.Result.DeviceCost != first.Result.DeviceCost {
		t.Fatalf("recovered result drifted: %v vs %v", st.Result.DeviceCost, first.Result.DeviceCost)
	}
	// Idempotent re-POST of the known ID returns the stored outcome
	// instead of re-running.
	resp2, st2 := postJSON(t, ts2.URL+"/v1/jobs", req)
	if resp2.StatusCode != http.StatusOK || st2.State != StateDone {
		t.Fatalf("replay across restart: %d %+v", resp2.StatusCode, st2)
	}
}

// TestErrorKindsTable enumerates the typed error kinds: every non-2xx
// API response must carry an apiError.Kind (or JobStatus.ErrorKind)
// matching its HTTP status.
func TestErrorKindsTable(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		pre    func(t *testing.T, s *Server, base string)
		method string
		path   string
		body   string
		status int
		kind   string
	}{
		{
			name: "malformed", method: "POST", path: "/v1/partition",
			body:   "circuit c\ncell u0 area\n",
			status: http.StatusBadRequest, kind: KindMalformed,
		},
		{
			name: "too_large", method: "POST", path: "/v1/partition",
			body:   "OVERSIZE",
			status: http.StatusRequestEntityTooLarge, kind: KindMalformed,
		},
		{
			name: "infeasible",
			cfg: Config{Inject: faultinject.NewPlan(faultinject.Rule{
				Site: faultinject.SiteAttempt, Kind: faultinject.KindPanic,
				Attempt: faultinject.Any, Index: faultinject.Any,
			})},
			method: "POST", path: "/v1/partition?solutions=2&seed=1", body: "CIRCUIT",
			status: http.StatusUnprocessableEntity, kind: KindInfeasible,
		},
		{
			name:   "timeout",
			cfg:    Config{Inject: faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 500*time.Millisecond))},
			method: "POST", path: "/v1/partition?solutions=2&seed=1&timeout_ms=50", body: "CIRCUIT",
			status: http.StatusGatewayTimeout, kind: KindTimeout,
		},
		{
			name: "not_found_job", method: "GET", path: "/v1/jobs/ghost",
			status: http.StatusNotFound, kind: KindNotFound,
		},
		{
			name: "not_found_endpoint", method: "GET", path: "/v1/nothing",
			status: http.StatusNotFound, kind: KindNotFound,
		},
		{
			name: "method_not_allowed", method: "DELETE", path: "/v1/partition",
			status: http.StatusMethodNotAllowed, kind: KindMethodNotAllowed,
		},
		{
			name: "overload",
			cfg:  Config{Workers: 1, QueueDepth: 1, Inject: faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, time.Second))},
			pre: func(t *testing.T, s *Server, base string) {
				// Saturate the single worker and the one-deep queue so the
				// probed submission is shed.
				circuit := circuitText(t, 120, 1)
				for i := 0; i < 2; i++ {
					resp, err := http.Post(base+"/v1/jobs?solutions=1", "text/plain", newBody(circuit))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
				}
			},
			method: "POST", path: "/v1/jobs?solutions=1", body: "CIRCUIT",
			status: http.StatusTooManyRequests, kind: KindOverload,
		},
		{
			name: "draining",
			pre: func(t *testing.T, s *Server, base string) {
				s.admit.Lock()
				if !s.draining {
					s.draining = true
					close(s.queue)
				}
				s.admit.Unlock()
				s.workers.Wait()
			},
			method: "POST", path: "/v1/partition?solutions=1", body: "CIRCUIT",
			status: http.StatusServiceUnavailable, kind: KindDraining,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			if tc.pre != nil {
				tc.pre(t, s, ts.URL)
			}
			body := tc.body
			if body == "CIRCUIT" {
				body = circuitText(t, 120, 1)
			}
			var httpReq *http.Request
			var err error
			if body == "OVERSIZE" {
				httpReq, err = oversizedRequest(ts.URL + tc.path)
			} else {
				httpReq, err = http.NewRequest(tc.method, ts.URL+tc.path, newBody(body))
			}
			if err != nil {
				t.Fatal(err)
			}
			if body != "" {
				httpReq.Header.Set("Content-Type", "text/plain")
			}
			resp, err := http.DefaultClient.Do(httpReq)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e struct {
				Kind      string `json:"error_kind"`
				Error     string `json:"error"`
				ErrorKind string `json:"-"`
			}
			if err := decodeJSONBody(resp, &e); err != nil {
				t.Fatal(err)
			}
			if e.Kind != tc.kind {
				t.Fatalf("error_kind %q (%q), want %q", e.Kind, e.Error, tc.kind)
			}
		})
	}

	// The sync endpoint's kind→status mapping, pinned for every kind
	// (canceled and internal are hard to provoke over HTTP reliably).
	mapping := map[string]int{
		KindMalformed:  http.StatusBadRequest,
		KindInfeasible: http.StatusUnprocessableEntity,
		KindTimeout:    http.StatusGatewayTimeout,
		KindCanceled:   http.StatusServiceUnavailable,
		KindInternal:   http.StatusInternalServerError,
	}
	for kind, want := range mapping {
		if got := syncFailureStatus(kind); got != want {
			t.Errorf("syncFailureStatus(%q) = %d, want %d", kind, got, want)
		}
	}
}
