package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/coord"
	"fpgapart/internal/netlist"
	"fpgapart/internal/server"
)

// serve starts s behind an httptest listener and drains both at cleanup.
func serve(t *testing.T, s *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// syncResult posts req to base's sync endpoint and returns the result as
// JSON text.
func syncResult(t *testing.T, base string, req server.JobRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/partition", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Result == nil {
		t.Fatalf("seed %d: HTTP %d %+v", req.Seed, resp.StatusCode, st)
	}
	out, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCoordinatorGNLMatchesLocal: a gate-level job served by a
// coordinator fanning out to two workers returns the byte-identical
// result of the same job on a local server. Technology mapping packs
// with the job seed, so the workers must partition the circuit the
// coordinator mapped, not re-map the netlist with their attempt seeds.
func TestCoordinatorGNLMatchesLocal(t *testing.T) {
	n, err := netlist.Random(netlist.RandomParams{Gates: 1500, Inputs: 30, Outputs: 20, DffFrac: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	local := serve(t, server.New(server.Config{}))
	workers := []string{serve(t, server.New(server.Config{})), serve(t, server.New(server.Config{}))}
	pool, err := coord.New(coord.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	coordinator := serve(t, server.New(server.Config{Distribute: pool.Distribute}))
	for seed := int64(1); seed <= 3; seed++ {
		req := server.JobRequest{Circuit: sb.String(), Format: "gnl", Solutions: 8, Seed: seed}
		if got, want := syncResult(t, coordinator, req), syncResult(t, local, req); got != want {
			t.Errorf("seed %d: coordinator result diverged from the local run:\n got %s\nwant %s", seed, got, want)
		}
	}
}
