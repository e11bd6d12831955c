package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fpgapart/internal/hypergraph"
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
