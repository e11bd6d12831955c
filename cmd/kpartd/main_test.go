package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/span"
)

// getBody fetches url and returns the body, failing on a non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestDaemonLifecycle is the black-box smoke: build the daemon, start
// it, partition a circuit over HTTP, then SIGTERM it and require a
// clean drain within five seconds.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "kpartd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-queue", "2", "-drain-timeout", "4s", "-pprof", "-log-json")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitUp(t, base)

	// 400 cells overflow the largest library device, so the job
	// exercises the carve loop and its metrics.
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 10, PrimaryOut: 6, Seed: 1, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hypergraph.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/partition?solutions=3&seed=1", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"device_cost"`) {
		t.Fatalf("missing result fields:\n%s", body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("partition response missing X-Request-Id")
	}

	// The board field reaches the spec parser straight from the request:
	// a spec with too many slots must be a prompt 400 malformed, not
	// gigabytes of link lists built before the slot check.
	start := time.Now()
	resp, err = http.Post(base+"/v1/partition?solutions=3&seed=1&board=crossbar:100000", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"error_kind":"malformed"`) {
		t.Fatalf("oversized board: %d\n%s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("oversized board rejected after %v", d)
	}

	// The acceptance scrape: after the completed job, /metrics must show
	// a non-zero request-latency count, the carve counters the job fed
	// through the engine bridge, and the queue-depth gauge.
	metrics := getBody(t, base+"/metrics")
	if !regexp.MustCompile(`fpgapart_http_request_duration_seconds_count\{endpoint="/v1/partition"\} [1-9]`).MatchString(metrics) {
		t.Fatalf("no request latency observations:\n%s", metrics)
	}
	if !regexp.MustCompile(`fpgapart_carve_accepted_total [1-9]`).MatchString(metrics) {
		t.Fatalf("no carve counter samples:\n%s", metrics)
	}
	if !strings.Contains(metrics, "fpgapart_queue_depth ") {
		t.Fatalf("missing queue depth gauge:\n%s", metrics)
	}

	// -pprof mounted the profiling surface; buildinfo is always on.
	if out := getBody(t, base+"/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}
	if out := getBody(t, base+"/debug/buildinfo"); !strings.Contains(out, "fpgapart") {
		t.Fatalf("buildinfo missing module path:\n%s", out)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain within 5s of SIGTERM")
	}
}

// Flag values the daemon cannot run with exit 2 before it listens, with
// a log line naming the flag.
func TestBadFlagsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-queue", "-1"}, "bad -queue"},
		{[]string{"-workers", "-1"}, "bad -workers"},
		{[]string{"-tries", "-1"}, "bad -tries"},
		{[]string{"-workers", "http://127.0.0.1:1", "-attempt-timeout", "-1s"}, "negative AttemptTimeout"},
		{[]string{"-workers", "http://127.0.0.1:1", "-hedge-after", "-1s"}, "negative HedgeAfter"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("kpartd %v: %v, want exit status 2 and a log naming %q\n%s", tc.args, err, tc.want, stderr.String())
		}
	}
}

// buildDaemon compiles the kpartd binary into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kpartd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves and releases a loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// benchCircuit renders a deterministic 400-cell circuit.
func benchCircuit(t *testing.T) string {
	t.Helper()
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 10, PrimaryOut: 6, Seed: 1, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hypergraph.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCrashRecovery is the black-box durability smoke: SIGKILL the
// daemon mid-search and require the restarted process to resume the
// job from its durable checkpoint and finish it with the result a
// never-killed run would have produced.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	storeDir := t.TempDir()
	circuit := benchCircuit(t)
	// A generous search budget: a wall-clock stop would make the
	// result timing-dependent and break the byte-identity assertion.
	daemonArgs := func(addr string) []string {
		return []string{"-addr", addr, "-workers", "1", "-store", storeDir,
			"-default-timeout", "2m", "-drain-timeout", "2s", "-log-json"}
	}

	// Life 1: submit an async job big enough (60 attempts) that the
	// kill lands mid-search, then SIGKILL as soon as the first durable
	// checkpoint hits the WAL.
	addr1 := freeAddr(t)
	cmd1 := exec.Command(bin, daemonArgs(addr1)...)
	cmd1.Stderr = os.Stderr
	if err := cmd1.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd1.Process.Kill()
	base1 := "http://" + addr1
	waitUp(t, base1)

	resp, err := http.Post(base1+"/v1/jobs?solutions=60&seed=1", "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response: %v\n%s", err, body)
	}

	walPath := filepath.Join(storeDir, "wal.log")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if wal, err := os.ReadFile(walPath); err == nil && bytes.Contains(wal, []byte(`"folded"`)) {
			break // first checkpoint record landed
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint appeared in the WAL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	cmd1.Wait()

	// Life 2: same store. The daemon must replay the WAL, re-enqueue
	// the interrupted job and finish it.
	addr2 := freeAddr(t)
	cmd2 := exec.Command(bin, daemonArgs(addr2)...)
	cmd2.Stderr = os.Stderr
	if err := cmd2.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd2.Process.Kill()
	base2 := "http://" + addr2
	waitUp(t, base2)

	var st struct {
		State     string          `json:"state"`
		Recovered bool            `json:"recovered"`
		Result    json.RawMessage `json:"result"`
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		raw := getBody(t, base2+"/v1/jobs/"+sub.ID)
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatalf("status: %v\n%s", err, raw)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck in state %q", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != "done" || !st.Recovered {
		t.Fatalf("recovered job: state=%q recovered=%v", st.State, st.Recovered)
	}

	var got map[string]any
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got["resumed_from_attempt"]; !ok {
		t.Fatalf("recovered result missing resumed_from_attempt:\n%s", st.Result)
	}
	delete(got, "resumed_from_attempt")

	// Byte-identity modulo the resume marker: a fresh synchronous run of
	// the same fixed-seed request on the restarted daemon must agree.
	resp2, err := http.Post(base2+"/v1/partition?solutions=60&seed=1", "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	refBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d\n%s", resp2.StatusCode, refBody)
	}
	var refSt struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(refBody, &refSt); err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(refSt.Result, &want); err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("recovered result diverged from a fresh run:\n got %s\nwant %s", gj, wj)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
}

// TestCoordinatorMode is the black-box fan-out smoke: a coordinator
// daemon pointed at one worker daemon must serve a partition whose
// attempts all ran remotely.
func TestCoordinatorMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	circuit := benchCircuit(t)

	workerAddr := freeAddr(t)
	worker := exec.Command(bin, "-addr", workerAddr, "-workers", "2", "-drain-timeout", "2s", "-log-json")
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	defer worker.Process.Kill()
	waitUp(t, "http://"+workerAddr)

	coordAddr := freeAddr(t)
	coordd := exec.Command(bin, "-addr", coordAddr,
		"-workers", "http://"+workerAddr, "-tries", "2", "-drain-timeout", "2s", "-log-json")
	coordd.Stderr = os.Stderr
	if err := coordd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordd.Process.Kill()
	base := "http://" + coordAddr
	waitUp(t, base)

	resp, err := http.Post(base+"/v1/partition?solutions=3&seed=1", "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition via coordinator: %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"device_cost"`) {
		t.Fatalf("missing result fields:\n%s", body)
	}
	metrics := getBody(t, base+"/metrics")
	if !regexp.MustCompile(`fpgapart_coord_attempts_total\{outcome="ok"\} 3`).MatchString(metrics) {
		t.Fatalf("coordinator did not fan out all 3 attempts:\n%s", metrics)
	}

	for _, cmd := range []*exec.Cmd{coordd, worker} {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
		}
	}
}

// TestCoordinatorStitchedTrace is the black-box tracing smoke: a job
// fanned out by a coordinator daemon must yield ONE trace tree on
// /debug/trace/{job} containing spans minted by both processes —
// coordinator rpc spans with the worker's job subtrees stitched
// underneath via traceparent propagation. It also covers the drain
// contract: SIGTERM with -store leaves a final metrics snapshot.
func TestCoordinatorStitchedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	circuit := benchCircuit(t)
	storeDir := t.TempDir()

	workerAddr := freeAddr(t)
	worker := exec.Command(bin, "-addr", workerAddr, "-workers", "2", "-drain-timeout", "2s", "-log-json")
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	defer worker.Process.Kill()
	waitUp(t, "http://"+workerAddr)

	coordAddr := freeAddr(t)
	coordd := exec.Command(bin, "-addr", coordAddr,
		"-workers", "http://"+workerAddr, "-tries", "2", "-store", storeDir,
		"-drain-timeout", "2s", "-log-json")
	coordd.Stderr = os.Stderr
	if err := coordd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordd.Process.Kill()
	base := "http://" + coordAddr
	waitUp(t, base)

	resp, err := http.Post(base+"/v1/jobs?solutions=3&seed=1", "text/plain", strings.NewReader(circuit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getBody(t, base+"/v1/jobs/"+sub.ID)
		if strings.Contains(st, `"state":"done"`) {
			break
		}
		if strings.Contains(st, `"state":"failed"`) {
			t.Fatalf("job failed:\n%s", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(25 * time.Millisecond)
	}

	var tr struct {
		Job   string       `json:"job"`
		Spans int          `json:"spans"`
		Tree  []*span.Node `json:"tree"`
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/debug/trace/"+sub.ID)), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Job != sub.ID || tr.Spans == 0 || len(tr.Tree) == 0 {
		t.Fatalf("bad trace body: %+v", tr)
	}
	// Walk the tree: span IDs embed the minting process's origin, so a
	// stitched cross-process trace must carry at least two distinct
	// origins, and every worker job subtree hangs under a coordinator
	// rpc span.
	origins := make(map[uint64]bool)
	var remoteJobs, rpcs int
	var walk func(n *span.Node, parent string)
	walk = func(n *span.Node, parent string) {
		origins[uint64(n.ID)>>40] = true
		if n.Name == "rpc" {
			rpcs++
		}
		if n.Name == "job" && parent == "rpc" {
			remoteJobs++
		}
		for _, c := range n.Children {
			walk(c, n.Name)
		}
	}
	for _, n := range tr.Tree {
		walk(n, "")
	}
	if len(origins) < 2 {
		t.Fatalf("trace has spans from %d origin(s), want >= 2 (coordinator + worker)", len(origins))
	}
	if rpcs < 3 {
		t.Fatalf("expected >= 3 rpc spans (one per attempt), got %d", rpcs)
	}
	if remoteJobs == 0 {
		t.Fatal("no worker job subtree stitched under an rpc span")
	}
	flight := getBody(t, base+"/debug/flightrecorder")
	if !strings.Contains(flight, `"process":"kpartd"`) || !strings.Contains(flight, `"name":"job"`) {
		t.Fatalf("flight recorder missing completed spans:\n%.500s", flight)
	}

	for _, cmd := range []*exec.Cmd{coordd, worker} {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
		}
	}
	// The drain must have left a final metrics snapshot next to the
	// store — the same Prometheus text format kpart -metrics-out emits.
	snap, err := os.ReadFile(filepath.Join(storeDir, "metrics.prom"))
	if err != nil {
		t.Fatalf("final metrics snapshot missing: %v", err)
	}
	for _, want := range []string{"# TYPE", "fpgapart_jobs_total", "fpgapart_coord_attempts_total"} {
		if !bytes.Contains(snap, []byte(want)) {
			t.Fatalf("final metrics snapshot missing %q:\n%.500s", want, snap)
		}
	}
}

func waitUp(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", base)
}
