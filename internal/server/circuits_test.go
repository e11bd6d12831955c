package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/netlist"
)

// parseCount reads how many parses ran and how many requests took a
// cached circuit instead.
func parseCount(t *testing.T, base string) (parses, hits float64) {
	t.Helper()
	out := scrape(t, base)
	return metricValue(t, out, `fpgapart_phase_seconds_count{phase="parse"}`),
		metricValue(t, out, metricCircuitHits)
}

func syncJSON(t *testing.T, base string, req JobRequest) string {
	t.Helper()
	resp, st := postJSON(t, base+"/v1/partition", req)
	if resp.StatusCode != http.StatusOK || st.Result == nil {
		t.Fatalf("sync: %d (%+v)", resp.StatusCode, st)
	}
	b, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A cached circuit partitions exactly like a freshly parsed one, and a
// .clb circuit is shared across seeds: the seed does not change its
// graph.
func TestCircuitCacheHitMatchesColdServer(t *testing.T) {
	_, warm := newTestServer(t, Config{})
	_, cold := newTestServer(t, Config{})
	circuit := circuitText(t, 400, 1)
	syncJSON(t, warm.URL, JobRequest{Circuit: circuit, Solutions: 3, Seed: 1})
	req := JobRequest{Circuit: circuit, Solutions: 3, Seed: 2}
	if got, want := syncJSON(t, warm.URL, req), syncJSON(t, cold.URL, req); got != want {
		t.Fatalf("cached circuit diverged from a cold parse:\n got %s\nwant %s", got, want)
	}
	if parses, hits := parseCount(t, warm.URL); parses != 1 || hits != 1 {
		t.Fatalf("parses=%v hits=%v, want 1 and 1", parses, hits)
	}
}

// Technology mapping packs with the job seed, so gnl circuits are
// cached per seed: two seeds give two mapped graphs, a repeated seed
// the cached one.
func TestCircuitCacheKeysGNLBySeed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	n, err := netlist.Random(netlist.RandomParams{Gates: 800, Inputs: 20, Outputs: 10, DffFrac: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	mapped := func(seed int64) (*hypergraph.Graph, string) {
		g, _, _, err := s.parseRequest(&JobRequest{Circuit: sb.String(), Format: "gnl", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := hypergraph.Write(&out, g); err != nil {
			t.Fatal(err)
		}
		return g, out.String()
	}
	g1, text1 := mapped(1)
	g2, text2 := mapped(2)
	if g1 == g2 || text1 == text2 {
		t.Fatal("gnl jobs with seeds 1 and 2 got the same mapped graph")
	}
	if again, _ := mapped(1); again != g1 {
		t.Fatal("a repeated gnl seed re-mapped the circuit")
	}
}

// Rejected circuits are parsed and rejected on every request, with
// their line context, and never enter the cache.
func TestCircuitCacheNeverKeepsParseErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// One cell with 65537 pins, one over the default cap of 1<<16.
	overPins := "circuit c\ninput a\ncell u0 in=" + strings.Repeat("a,", 1<<16) + "a out=y\n"
	for _, c := range []struct{ name, body, want string }{
		{"malformed", "circuit c\ncell u0 area\n", "line 2"},
		{"over limit", overPins, "pins 65537 exceeds limit 65536"},
	} {
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/v1/partition", "text/plain", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			var e apiError
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Kind != KindMalformed || !strings.Contains(e.Error, c.want) {
				t.Fatalf("%s, request %d: %d %+v, want 400 %s with %q", c.name, i, resp.StatusCode, e, KindMalformed, c.want)
			}
		}
	}
	if parses, hits := parseCount(t, ts.URL); parses != 6 || hits != 0 {
		t.Fatalf("parses=%v hits=%v, want 6 and 0", parses, hits)
	}
	s.circuits.mu.Lock()
	defer s.circuits.mu.Unlock()
	if len(s.circuits.byKey) != 0 || len(s.circuits.fifo) != 0 {
		t.Fatalf("rejected circuits left %d cache entries", len(s.circuits.byKey))
	}
}

// Past the bound the oldest circuit is evicted: asking for it again
// parses it again, to a graph that partitions the same way.
func TestCircuitCacheEvictsOldest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := JobRequest{Circuit: circuitText(t, 400, 1), Solutions: 3, Seed: 1}
	first := syncJSON(t, ts.URL, req)
	for i := 0; i < circuitCacheSize; i++ {
		if _, _, _, err := s.parseRequest(&JobRequest{Circuit: circuitText(t, 60, int64(i+2))}); err != nil {
			t.Fatal(err)
		}
	}
	if again := syncJSON(t, ts.URL, req); again != first {
		t.Fatalf("re-parsed circuit diverged:\n got %s\nwant %s", again, first)
	}
	if parses, hits := parseCount(t, ts.URL); parses != circuitCacheSize+2 || hits != 0 {
		t.Fatalf("parses=%v hits=%v, want %d and 0", parses, hits, circuitCacheSize+2)
	}
	s.circuits.mu.Lock()
	defer s.circuits.mu.Unlock()
	if n := len(s.circuits.fifo); n != circuitCacheSize {
		t.Fatalf("cache holds %d circuits, want the bound %d", n, circuitCacheSize)
	}
}

// Concurrent jobs on one circuit parse it once and all search the same
// graph. Run under -race: the searches share it read-only.
func TestCircuitCacheSharedAcrossConcurrentJobs(t *testing.T) {
	const jobs = 6
	s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: jobs})
	circuit := circuitText(t, 400, 1)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		body, err := json.Marshal(JobRequest{Circuit: circuit, Solutions: 2, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: HTTP %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if parses, hits := parseCount(t, ts.URL); parses != 1 || hits != jobs-1 {
		t.Fatalf("parses=%v hits=%v, want 1 and %d", parses, hits, jobs-1)
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	var g *hypergraph.Graph
	for id, j := range s.jobs {
		if g == nil {
			g = j.graph
		}
		if j.graph != g {
			t.Fatalf("job %s searched its own copy of the circuit", id)
		}
	}
}

// A digest-only request takes its circuit from the cache. Before any
// request has sent the text, both submission endpoints answer 409
// circuit_unknown; afterwards the digest alone gives the text request's
// result, counts as a cache hit, and the job holds the cached text
// itself rather than a copy.
func TestCircuitDigestOnlyRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	circuit := circuitText(t, 400, 1)
	digest := CircuitDigest(circuit)
	for _, path := range []string{"/v1/jobs", "/v1/partition"} {
		resp, st := postJSON(t, ts.URL+path, JobRequest{CircuitDigest: digest, Solutions: 3, Seed: 2})
		if resp.StatusCode != http.StatusConflict || st.ErrorKind != KindCircuitUnknown {
			t.Fatalf("%s: cold digest got %d %q, want 409 %s", path, resp.StatusCode, st.ErrorKind, KindCircuitUnknown)
		}
	}
	want := syncJSON(t, ts.URL, JobRequest{Circuit: circuit, CircuitDigest: digest, Solutions: 3, Seed: 2})
	resp, st := postJSON(t, ts.URL+"/v1/partition", JobRequest{CircuitDigest: digest, Solutions: 3, Seed: 2})
	if resp.StatusCode != http.StatusOK || st.Result == nil {
		t.Fatalf("digest-only hit: %d (%+v)", resp.StatusCode, st)
	}
	if got := mustJSONString(t, st.Result); got != want {
		t.Fatalf("digest-only result diverged from the text request's:\n got %s\nwant %s", got, want)
	}
	if parses, hits := parseCount(t, ts.URL); parses != 1 || hits != 1 {
		t.Fatalf("parses=%v hits=%v, want 1 and 1", parses, hits)
	}
	j, ok := s.lookup(st.ID)
	if !ok {
		t.Fatalf("job %s not in the job table", st.ID)
	}
	s.circuits.mu.Lock()
	cached := s.circuits.fifo[0].text
	s.circuits.mu.Unlock()
	if j.req.Circuit != circuit || unsafe.StringData(j.req.Circuit) != unsafe.StringData(cached) {
		t.Fatal("the digest-only job does not hold the cached circuit text")
	}
}

// A digest that is not a hex SHA-256, or one that disagrees with the
// text sent beside it, is malformed, and nothing is parsed.
func TestCircuitDigestMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	circuit := circuitText(t, 120, 1)
	for _, c := range []struct {
		name string
		req  JobRequest
	}{
		{"short", JobRequest{CircuitDigest: "abc123"}},
		{"not hex", JobRequest{CircuitDigest: strings.Repeat("zz", 32)}},
		{"too long", JobRequest{CircuitDigest: CircuitDigest(circuit) + "00"}},
		{"mismatch", JobRequest{Circuit: circuit, CircuitDigest: CircuitDigest(circuit + "\n")}},
	} {
		resp, st := postJSON(t, ts.URL+"/v1/partition", c.req)
		if resp.StatusCode != http.StatusBadRequest || st.ErrorKind != KindMalformed || !strings.Contains(st.Error, "circuit_digest") {
			t.Fatalf("%s: %d %q %q, want 400 %s naming circuit_digest", c.name, resp.StatusCode, st.ErrorKind, st.Error, KindMalformed)
		}
	}
	if parses, hits := parseCount(t, ts.URL); parses != 0 || hits != 0 {
		t.Fatalf("parses=%v hits=%v, want 0 and 0", parses, hits)
	}
}

// A digest-only job admitted by a server with a durable store persists
// the full circuit text, so a restarted server, whose cache is empty,
// rebuilds the job from the store and finishes it with the result of
// the text request.
func TestCircuitDigestJobRecovered(t *testing.T) {
	dir := t.TempDir()
	circuit := circuitText(t, 120, 1)
	req := JobRequest{ID: "job-digest", CircuitDigest: CircuitDigest(circuit), Solutions: 3, Seed: 4}

	// Life 1: every attempt stalls, so the drain cuts the job before it
	// completes and leaves it incomplete in the store.
	store1 := openStore(t, dir)
	plan := faultinject.NewPlan(faultinject.DelayAtAttempt(faultinject.Any, 2*time.Second))
	s1 := New(Config{Workers: 1, Store: store1, Inject: plan, DefaultTimeout: time.Minute})
	ts1 := httptest.NewServer(s1)
	if _, _, _, err := s1.parseRequest(&JobRequest{Circuit: circuit}); err != nil {
		t.Fatal(err)
	}
	if resp, st := postJSON(t, ts1.URL+"/v1/jobs", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("digest-only submit: %d (%+v)", resp.StatusCode, st)
	}
	ts1.Close()
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Shutdown(cut)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, recovered, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Complete() {
		t.Fatalf("store holds %d jobs, want the one incomplete digest-only job", len(recovered))
	}
	var durable JobRequest
	if err := json.Unmarshal(recovered[0].Request, &durable); err != nil || durable.Circuit != circuit {
		t.Fatalf("durable request lacks the circuit text (%v)", err)
	}

	s2 := New(Config{Workers: 1, Store: store2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
		store2.Close()
	})
	j, ok := s2.lookup(req.ID)
	if !ok {
		t.Fatal("digest-only job not recovered into the job table")
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("recovered digest-only job did not finish")
	}
	st := j.status()
	if st.State != StateDone || !st.Recovered {
		t.Fatalf("recovered job: %+v", st)
	}
	want, err := s2.LocalAttempt()(context.Background(), &JobRequest{Circuit: circuit, Solutions: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := *st.Result
	got.ResumedFromAttempt = nil
	if g, w := mustJSONString(t, &got), mustJSONString(t, want); g != w {
		t.Fatalf("recovered digest-only job diverged:\n got %s\nwant %s", g, w)
	}
}

// A digest-only lookup racing the text request's parse shares the
// parsed graph when the parse succeeds and misses when it fails and
// leaves the cache, whether it waits on the parse or comes after it.
func TestCircuitDigestWaitsForParse(t *testing.T) {
	for _, fail := range []bool{false, true} {
		c := &circuitCache{byKey: make(map[circuitKey]*circuitEntry)}
		key := circuitKey{format: "clb", digest: [32]byte{1}}
		want := &hypergraph.Graph{}
		started, release := make(chan struct{}), make(chan struct{})
		parsed := make(chan error, 1)
		go func() {
			_, _, _, err := c.graph(key, "circuit text", func(string) (*hypergraph.Graph, error) {
				close(started)
				<-release
				if fail {
					return nil, errors.New("bad circuit")
				}
				return want, nil
			})
			parsed <- err
		}()
		<-started
		type lookup struct {
			g    *hypergraph.Graph
			text string
			hit  bool
			err  error
		}
		waiter := make(chan lookup, 1)
		go func() {
			g, text, hit, err := c.graph(key, "", nil)
			waiter <- lookup{g, text, hit, err}
		}()
		close(release)
		if err := <-parsed; (err != nil) != fail {
			t.Fatalf("fail=%v: parse error %v", fail, err)
		}
		got := <-waiter
		if fail {
			if !errors.Is(got.err, errCircuitUnknown) {
				t.Fatalf("lookup after a failed parse: %v, want errCircuitUnknown", got.err)
			}
			continue
		}
		if got.err != nil || got.g != want || !got.hit || got.text != "circuit text" {
			t.Fatalf("lookup during the parse: %+v, want the parsed graph and its text as a hit", got)
		}
	}
}
