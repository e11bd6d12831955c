package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
)

// circuitText renders a small deterministic benchmark circuit as .clb
// source, the way a client would post it.
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func getStatus(t *testing.T, url string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job: %d", code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return JobStatus{}
}

func TestSubmitAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, st := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 3, Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// A worker can finish a job this small before the 202 is encoded.
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning && st.State != StateDone) {
		t.Fatalf("bad initial status: %+v", st)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	if final.Result == nil || final.Result.K < 1 || final.Result.DeviceCost <= 0 {
		t.Fatalf("bad result: %+v", final.Result)
	}
	if final.Result.Degraded {
		t.Fatalf("uninjected run reported degraded: %+v", final.Result)
	}
}

func TestSyncPartitionJSONAndRaw(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	circuit := circuitText(t, 120, 1)

	resp, st := postJSON(t, ts.URL+"/v1/partition", JobRequest{Circuit: circuit, Solutions: 3, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync JSON: %d (%+v)", resp.StatusCode, st)
	}
	if st.Result == nil || st.Result.K < 1 {
		t.Fatalf("bad sync result: %+v", st)
	}

	// The raw-body form: POST the .clb text directly, parameters in the
	// query string (the shape the CI smoke test uses with curl).
	resp2, err := http.Post(ts.URL+"/v1/partition?solutions=3&seed=1", "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 JobStatus
	json.NewDecoder(resp2.Body).Decode(&st2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sync raw: %d (%+v)", resp2.StatusCode, st2)
	}
	// Same inputs, same seed: the two runs must agree exactly.
	if st2.Result == nil || st2.Result.DeviceCost != st.Result.DeviceCost || st2.Result.K != st.Result.K {
		t.Fatalf("raw result diverged: %+v vs %+v", st2.Result, st.Result)
	}
}

// TestExplicitThresholdZero: "threshold": 0 and ?threshold=0 both mean
// T = 0 (maximum replication), not the T = 1 an absent threshold
// selects. Each request must equal the local search it names. The
// comparison runs at the first seed in 1–4 where the local T = 0 and
// T = 1 searches on c5315 differ, so a server that dropped the
// threshold could not pass; some seed must differ.
func TestExplicitThresholdZero(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c, _ := bench.ByName("c5315")
	var sb strings.Builder
	if err := hypergraph.Write(&sb, build(t, c)); err != nil {
		t.Fatal(err)
	}
	circuit := sb.String()
	g, err := hypergraph.Read(strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	local := func(seed int64, threshold *int) *JobResult {
		res, err := core.Partition(g, core.Options{Solutions: 4, Seed: seed, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return ResultJSON(g, res, nil)
	}
	var seed int64
	var wantDefault, wantZero *JobResult
	for s := int64(1); s <= 4; s++ {
		wantDefault, wantZero = local(s, nil), local(s, &zero)
		if !reflect.DeepEqual(wantDefault, wantZero) {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("local T = 0 and T = 1 searches on c5315 agree at every seed in 1-4")
	}
	for name, c := range map[string]struct {
		req  JobRequest
		want *JobResult
	}{
		"default": {JobRequest{Circuit: circuit, Solutions: 4, Seed: seed}, wantDefault},
		"zero":    {JobRequest{Circuit: circuit, Solutions: 4, Seed: seed, Threshold: &zero}, wantZero},
	} {
		resp, st := postJSON(t, ts.URL+"/v1/partition", c.req)
		if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(st.Result, c.want) {
			t.Fatalf("%s at seed %d: %d %+v, want %+v", name, seed, resp.StatusCode, st.Result, c.want)
		}
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/partition?solutions=4&seed=%d&threshold=0", ts.URL, seed), "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(st.Result, wantZero) {
		t.Fatalf("?threshold=0 at seed %d: %d %+v, want %+v", seed, resp.StatusCode, st.Result, wantZero)
	}
}

func TestMalformedCircuit400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ body, want string }{
		{"circuit c\ncell u0 area\n", "line 2"},
		// Parses, but fails validation.
		{"circuit 0\ninput 0\n", `hypergraph "0": net "0" has no sinks`},
	} {
		resp, err := http.Post(ts.URL+"/v1/partition", "text/plain", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", c.body, resp.StatusCode)
		}
		if e.Kind != KindMalformed || !strings.Contains(e.Error, c.want) {
			t.Fatalf("%q: error should carry %q: %+v", c.body, c.want, e)
		}
	}
}

// An option outside its valid range is the client's error: the sync
// path answers 400 malformed, never 500 internal, and never runs the
// search with the value clamped.
func TestOutOfRangeOption400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	circuit := circuitText(t, 60, 1)
	for _, q := range []string{"solutions=-1", "max_stale=-1", "threshold=-5", "refine_workers=-3"} {
		resp, err := http.Post(ts.URL+"/v1/partition?seed=1&"+q, "text/plain", strings.NewReader(circuit))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Kind != KindMalformed {
			t.Fatalf("%s: %d %+v, want 400 %s", q, resp.StatusCode, e, KindMalformed)
		}
	}
}

// A negative search budget is malformed, not the server default, and
// one far above the server maximum is capped to it rather than
// overflowing into an already expired budget. Both hold for a JSON
// body and for the query string.
func TestTimeoutMSValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	circuit := circuitText(t, 60, 1)
	for _, c := range []struct {
		ms     int64
		status int
		kind   string
	}{
		{-5, http.StatusBadRequest, KindMalformed},
		{10_000_000_000_000, http.StatusOK, ""},
	} {
		body, err := json.Marshal(JobRequest{Circuit: circuit, Solutions: 2, Seed: 1, TimeoutMS: c.ms})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name, url, contentType, body string
		}{
			{"json", ts.URL + "/v1/partition", "application/json", string(body)},
			{"query", fmt.Sprintf("%s/v1/partition?solutions=2&seed=1&timeout_ms=%d", ts.URL, c.ms), "text/plain", circuit},
		} {
			resp, err := http.Post(r.url, r.contentType, strings.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Error string `json:"error"`
				Kind  string `json:"error_kind"`
			}
			json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != c.status || got.Kind != c.kind {
				t.Fatalf("%s timeout_ms=%d: %d %+v, want %d %q", r.name, c.ms, resp.StatusCode, got, c.status, c.kind)
			}
		}
	}
}

func TestIdempotentJobID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := JobRequest{ID: "job-abc", Circuit: circuitText(t, 120, 1), Solutions: 3, Seed: 1}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	final := waitDone(t, ts.URL, "job-abc")
	if final.State != StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	// Retrying the same submission must return the finished job, not
	// re-run it.
	resp2, st2 := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d, want 200", resp2.StatusCode)
	}
	if st2.State != StateDone || st2.Result == nil || st2.Result.DeviceCost != final.Result.DeviceCost {
		t.Fatalf("replay did not return the existing result: %+v", st2)
	}
}

func TestAdmissionControl429(t *testing.T) {
	// One worker, queue depth one, and every attempt sleeps: the third
	// (at the latest: fifth) submission must be shed with 429.
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 300*time.Millisecond))
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Inject: plan})
	circuit := circuitText(t, 120, 1)
	saw429 := false
	for i := 0; i < 5 && !saw429; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuit, Solutions: 2, Seed: int64(i + 1)})
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After = %q, want \"1\"", ra)
			}
		default:
			t.Fatalf("submit %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("queue never shed load with 429")
	}
}

func TestDegradedResultSurvivesPanic(t *testing.T) {
	// Attempt 1 panics; the job must still complete with the surviving
	// attempts folded and the degradation surfaced, never a 500.
	plan := faultinject.NewPlan(faultinject.PanicAtAttempt(1))
	_, ts := newTestServer(t, Config{Inject: plan})
	resp, st := postJSON(t, ts.URL+"/v1/partition", JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 4, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: %d (%+v)", resp.StatusCode, st)
	}
	if st.Result == nil || !st.Result.Degraded || st.Result.Panicked != 1 {
		t.Fatalf("panic not surfaced as degradation: %+v", st.Result)
	}
	if len(st.Result.PanickedSeeds) != 1 {
		t.Fatalf("panicked seeds: %+v", st.Result.PanickedSeeds)
	}
}

func TestTimeoutPropagation(t *testing.T) {
	// Every attempt sleeps longer than the request budget: the job must
	// fail with the timeout kind, mapped to 504 on the sync endpoint.
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 500*time.Millisecond))
	_, ts := newTestServer(t, Config{Inject: plan})
	resp, st := postJSON(t, ts.URL+"/v1/partition", JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 4, Seed: 1, TimeoutMS: 100})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", resp.StatusCode, st)
	}
	if st.ErrorKind != KindTimeout {
		t.Fatalf("error kind %q, want %q", st.ErrorKind, KindTimeout)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", ep, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Liveness survives the drain; readiness flips.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	// Admit a slow job, then shut down with a generous deadline: the
	// job must run to completion (drained, not cut) and later
	// submissions must be refused with 503.
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 50*time.Millisecond))
	s, ts := newTestServer(t, Config{Workers: 1, Inject: plan})
	circuit := circuitText(t, 120, 1)
	resp, st := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuit, Solutions: 2, Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, final := getStatus(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK || final.State != StateDone {
		t.Fatalf("in-flight job was not drained: %d %+v", code, final)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuit, Solutions: 1, Seed: 2})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d, want 503", resp2.StatusCode)
	}
}

func TestShutdownDeadlineCutsJobs(t *testing.T) {
	// Every attempt sleeps for a long time and the job budget is
	// generous: an immediate-deadline shutdown must cancel the base
	// context and still return (with ctx's error) instead of hanging.
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 200*time.Millisecond))
	s, ts := newTestServer(t, Config{Workers: 1, Inject: plan, DefaultTimeout: time.Minute})
	resp, st := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 50, Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("want deadline error from cut-short drain")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %s after deadline cut", elapsed)
	}
	// The cut job must have resolved one way or the other — a feasible
	// prefix folds into a done (possibly budget-stopped) result, an
	// empty prefix fails with canceled/timeout — never stuck running.
	code, final := getStatus(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET job: %d", code)
	}
	if final.State != StateDone && final.State != StateFailed {
		t.Fatalf("cut job left in state %q", final.State)
	}
	if final.State == StateFailed && final.ErrorKind != KindCanceled && final.ErrorKind != KindTimeout {
		t.Fatalf("cut job error kind %q: %+v", final.ErrorKind, final)
	}
}

func TestConcurrentSubmitRace(t *testing.T) {
	// Hammer admission from many goroutines while the pool churns:
	// every response must be a well-formed admission outcome and the
	// server must stay consistent (run with -race).
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	circuit := circuitText(t, 120, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(JobRequest{
				ID: fmt.Sprintf("race-%d", i%8), Circuit: circuit, Solutions: 1, Seed: int64(i),
			})
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted, http.StatusOK, http.StatusTooManyRequests:
			default:
				errs <- fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// build builds the benchmark circuit c, failing tb on an error.
func build(tb testing.TB, c bench.Circuit) *hypergraph.Graph {
	tb.Helper()
	g, err := c.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
