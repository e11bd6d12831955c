package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/kway"
	"fpgapart/internal/netlist"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/textparse"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return captureFile(t, &os.Stdout, fn)
}

// captureFile redirects *f (os.Stdout or os.Stderr) around fn.
func captureFile(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	ferr := fn()
	w.Close()
	*f = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), ferr
}

func writeCLB(t *testing.T) string {
	t.Helper()
	return writeCircuit(t, bench.Params{Cells: 120, PrimaryIn: 10, PrimaryOut: 6, Seed: 1, Clustering: 0.5})
}

// writeCircuit writes a generated circuit as .clb.
func writeCircuit(t *testing.T, p bench.Params) string {
	t.Helper()
	g, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.clb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := hypergraph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCLB(t *testing.T) {
	path := writeCLB(t)
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, verbose: true, check: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"partition: k=", "verify: partition is consistent", "Device"} {
		if !contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunGateNetlist(t *testing.T) {
	n, err := netlist.Random(netlist.RandomParams{Gates: 200, Inputs: 10, Outputs: 6, DffFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.gnl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Write(f, n); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1, gate: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "mapped") {
		t.Fatalf("missing mapping line:\n%s", out)
	}
}

func TestRunMissingFile(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(runConfig{path: "/nonexistent.clb", threshold: 1, solutions: 1, seed: 1})
	}); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestRunStatsJSONAndTimeout(t *testing.T) {
	path := writeCLB(t)
	stats := filepath.Join(t.TempDir(), "stats.jsonl")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1,
			timeout: time.Minute, statsJSON: stats})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty stats file")
	}
	var sawSolution bool
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		if m["event"] == "solution" {
			sawSolution = true
		}
	}
	if !sawSolution {
		t.Fatalf("no solution events among %d lines", len(lines))
	}
}

// -metrics-out must leave a Prometheus text snapshot of the engine
// counters and phase timings next to the normal output.
func TestRunMetricsOut(t *testing.T) {
	path := writeCLB(t)
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, metricsOut: metrics})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	snap := string(data)
	for _, want := range []string{
		"# TYPE fpgapart_carve_accepted_total counter",
		"# TYPE fpgapart_phase_seconds histogram",
		`fpgapart_phase_seconds_count{phase="parse"} 1`,
		`fpgapart_phase_seconds_count{phase="search"} 1`,
		"fpgapart_solutions_total",
	} {
		if !contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

// -progress ends with one stats line totalling the FM and carve work
// of the whole search. Under maximum replication (-t 0, which must
// reach the engine as T = 0, not the T = 1 default), s9234 carves with
// one carve rejected along the way.
func TestRunProgressStatsLine(t *testing.T) {
	var path string
	for _, c := range bench.Suite() {
		if c.Name == "s9234" {
			path = writeCircuit(t, c.Params)
		}
	}
	stderr, err := captureFile(t, &os.Stderr, func() error {
		_, err := capture(t, func() error {
			return run(runConfig{path: path, threshold: 0, solutions: 2, seed: 1, progress: true})
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "kpart: stats: 25 FM passes, 5551 moves; 2 carves (1 rejected), 441 replicas, 4718 rollbacks\n"
	if !strings.HasSuffix(stderr, want) {
		t.Fatalf("stderr does not end with %q:\n%s", want, stderr)
	}
}

// The -progress stats line and the -stats-json stream read one event
// stream: the stream holds one fm-pass line per pass the stats line
// counts, and the parse phase line, emitted when the parse span ends,
// comes first and only once.
func TestProgressAndStatsCountSamePasses(t *testing.T) {
	var path string
	for _, c := range bench.Suite() {
		if c.Name == "s9234" {
			path = writeCircuit(t, c.Params)
		}
	}
	statsPath := filepath.Join(t.TempDir(), "stats.jsonl")
	stderr, err := captureFile(t, &os.Stderr, func() error {
		_, err := capture(t, func() error {
			return run(runConfig{path: path, threshold: 0, solutions: 2, seed: 1, progress: true, statsJSON: statsPath})
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "kpart: stats: 25 FM passes,") {
		t.Fatalf("stats line does not count 25 FM passes:\n%s", stderr)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	passes, parses := 0, 0
	for _, line := range lines {
		if strings.HasPrefix(line, `{"event":"fm-pass",`) {
			passes++
		}
		if strings.Contains(line, `"phase":"parse"`) {
			parses++
		}
	}
	if passes != 25 {
		t.Fatalf("stats stream holds %d fm-pass lines, the stats line counts 25", passes)
	}
	if parses != 1 || !strings.HasPrefix(lines[0], `{"event":"phase","attempt":-1,"phase":"parse",`) {
		t.Fatalf("want exactly one parse phase line, first; got %d, first line %s", parses, lines[0])
	}
}

// A stats-stream write failure must fail the run with a clear message
// (and thus a non-zero exit), never leave a silently truncated file.
// /dev/full accepts the open and fails every write with ENOSPC.
func TestRunStatsJSONWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	path := writeCLB(t)
	_, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1, statsJSON: "/dev/full"})
	})
	if err == nil {
		t.Fatal("expected error from failing stats stream")
	}
	if !strings.Contains(err.Error(), "stats stream /dev/full") {
		t.Fatalf("error should name the stats stream: %v", err)
	}
	if got := exitCode(err); got != 1 {
		t.Fatalf("exit code %d, want 1", got)
	}
}

func TestExitCodes(t *testing.T) {
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Fatalf("generic error -> %d, want 1", got)
	}
	inf := &kway.InfeasibleError{Attempts: 5, First: errors.New("no carve")}
	if got := exitCode(fmt.Errorf("wrap: %w", inf)); got != 2 {
		t.Fatalf("infeasible -> %d, want 2", got)
	}
	budget := &search.ErrBudget{Cause: context.DeadlineExceeded, Folded: 0}
	if got := exitCode(fmt.Errorf("wrap: %w", budget)); got != 3 {
		t.Fatalf("budget -> %d, want 3", got)
	}
	// A timeout with no feasible solution wraps both; budget wins.
	both := fmt.Errorf("kway: %v: %w", inf, budget)
	if got := exitCode(both); got != 3 {
		t.Fatalf("budget+infeasible -> %d, want 3", got)
	}
	if got := exitCode(fmt.Errorf("wrap: %w", &textparse.ParseError{Format: "netlist", Line: 3})); got != 4 {
		t.Fatalf("netlist parse error -> %d, want 4", got)
	}
	if got := exitCode(fmt.Errorf("wrap: %w", &textparse.ParseError{Format: "hypergraph", Line: 7})); got != 4 {
		t.Fatalf("hypergraph parse error -> %d, want 4", got)
	}
	// A circuit that parses but fails validation is malformed input too.
	path := filepath.Join(t.TempDir(), "invalid.clb")
	if err := os.WriteFile(path, []byte("circuit 0\ninput 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 1, seed: 1})
	})
	if got := exitCode(err); got != 4 {
		t.Fatalf("circuit failing validation (%v) -> %d, want 4", err, got)
	}
	// So is a board file that parses but fails validation; its message
	// is the check's own.
	board := filepath.Join(t.TempDir(), "disconnected.board")
	if err := os.WriteFile(board, []byte("board b\nslots 3\nlink 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error {
		return run(runConfig{path: writeCLB(t), threshold: 1, solutions: 1, seed: 1, board: board})
	})
	if got := exitCode(err); got != 4 {
		t.Fatalf("board failing validation (%v) -> %d, want 4", err, got)
	}
	if want := `topology: board "b" is disconnected (no path 0–2)`; err.Error() != want {
		t.Fatalf("board validation error %q, want %q", err, want)
	}
	// A negative budget is a usage error, not "unlimited".
	_, err = capture(t, func() error {
		return run(runConfig{path: writeCLB(t), threshold: 1, solutions: 1, seed: 1, timeout: -time.Second})
	})
	if err == nil || exitCode(err) != 1 || err.Error() != "-timeout must be non-negative, got -1s" {
		t.Fatalf("negative -timeout: %v, want exit 1 naming the flag", err)
	}
}

// Truncated or malformed input must surface line context and map to
// exit code 4 — not the bare "unexpected EOF"-style error the tool
// used to print.
func TestRunMalformedInput(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, file, content string
		gate                bool
		wantInMsg           string
	}{
		{"truncated-clb", "t.clb", "circuit c\ninput a\ncell u0 area=2 in", false, "line 3"},
		{"empty-clb", "e.clb", "", false, "missing 'circuit'"},
		{"truncated-gnl", "t.gnl", "circuit c\ninput a\noutput y\nand y\n", true, "line 4"},
		{"bad-attr-clb", "b.clb", "circuit c\ncell u0 area=x\n", false, "col"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := capture(t, func() error {
				return run(runConfig{path: path, threshold: 1, solutions: 1, seed: 1, gate: tc.gate})
			})
			if err == nil {
				t.Fatal("expected parse error")
			}
			if got := exitCode(err); got != 4 {
				t.Fatalf("exit code %d, want 4 (err: %v)", got, err)
			}
			if !strings.Contains(err.Error(), tc.wantInMsg) {
				t.Fatalf("error %q should contain %q", err, tc.wantInMsg)
			}
		})
	}
}

// A board file is input like the circuit: a syntax error in it exits 4
// naming the line, and a long comment line is no error at all.
func TestRunBoardFile(t *testing.T) {
	path := writeCLB(t)
	cases := []struct {
		name, board, wantErr string
	}{
		{"bad-cap", "board b\nslots 4\nlink 0 1 cap x\n", "line 3"},
		{"long-comment", "# " + strings.Repeat("x", 70000) + "\nboard b\nslots 4\nlink 0 1\nlink 1 2\nlink 2 3\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			board := filepath.Join(t.TempDir(), "b.board")
			if err := os.WriteFile(board, []byte(tc.board), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := capture(t, func() error {
				return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1, board: board})
			})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !strings.Contains(out, "topology:") {
					t.Fatalf("board run printed no topology line:\n%s", out)
				}
				return
			}
			if got := exitCode(err); got != 4 {
				t.Fatalf("exit code %d, want 4 (err: %v)", got, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q should contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunStoreAndResume covers the durable-CLI contract: a store left
// mid-search by an interrupted run resumes with -resume, exits 0, and
// reports the resume point both on stdout and as resumed_from_attempt
// in the -stats-json stream.
func TestRunStoreAndResume(t *testing.T) {
	path := writeCLB(t)
	dir := filepath.Join(t.TempDir(), "store")

	// Fabricate the store a crash would leave: the submit record plus a
	// mid-search checkpoint (folded=3 of 6), no terminal record.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var cps []kway.SearchCheckpoint
	full, err := core.Partition(g, core.Options{
		Solutions: 6, Seed: 9,
		Checkpoint: func(cp kway.SearchCheckpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 6 {
		t.Fatalf("checkpoints = %d, want 6", len(cps))
	}
	st, _, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(cliJobID, runConfig{path: path, threshold: 1, solutions: 6, seed: 9}.identity()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(cliJobID, cps[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	stats := filepath.Join(t.TempDir(), "stats.jsonl")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 6, seed: 9,
			resumeDir: dir, statsJSON: stats})
	})
	if err != nil {
		t.Fatalf("resume must exit 0, got: %v", err)
	}
	if !contains(out, "search: resumed from attempt 3") {
		t.Fatalf("missing resume line:\n%s", out)
	}
	wantCost := fmt.Sprintf("cost=%.0f", full.Summary.DeviceCost())
	if !contains(out, wantCost) {
		t.Fatalf("resumed run diverged from the uninterrupted one (%s):\n%s", wantCost, out)
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"resumed_from_attempt":3`) {
		t.Fatalf("stats stream missing resumed_from_attempt:\n%s", data)
	}

	// The completed run appended its terminal record: a second -resume
	// replays the finished reduction (no search) and still exits 0.
	st2, jobs, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	for _, j := range jobs {
		if j.ID == cliJobID {
			done = j.Done
		}
	}
	st2.Close()
	if !done {
		t.Fatal("store not marked done after the resumed run completed")
	}
	out2, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 6, seed: 9, resumeDir: dir})
	})
	if err != nil {
		t.Fatalf("second resume must exit 0, got: %v", err)
	}
	if !contains(out2, wantCost) {
		t.Fatalf("replayed run lost the result:\n%s", out2)
	}
}

// TestResumeRejectsDifferentRun: -resume on a store recorded by another
// run must fail with exit 1 and name the first differing field, rather
// than replay that run's incumbent attempt against a new setup.
func TestResumeRejectsDifferentRun(t *testing.T) {
	path := writeCLB(t)
	dir := filepath.Join(t.TempDir(), "store")
	base := runConfig{path: path, threshold: 1, solutions: 2, seed: 9}
	orig := base
	orig.storeDir = dir
	if _, err := capture(t, func() error { return run(orig) }); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.clb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		change func(*runConfig)
	}{
		{"circuit", func(c *runConfig) { c.path = other }},
		{"t", func(c *runConfig) { c.threshold = 0 }},
		{"solutions", func(c *runConfig) { c.solutions = 3 }},
		{"seed", func(c *runConfig) { c.seed = 10 }},
		{"max-stale", func(c *runConfig) { c.maxStale = 1 }},
		{"multilevel", func(c *runConfig) { c.multilevel = true }},
		{"refine-workers", func(c *runConfig) { c.refineWorkers = 2 }},
		{"board", func(c *runConfig) { c.board = "crossbar:4" }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := base
			cfg.resumeDir = dir
			tc.change(&cfg)
			_, err := capture(t, func() error { return run(cfg) })
			if err == nil {
				t.Fatal("resume accepted a store from a different run")
			}
			if got := exitCode(err); got != 1 {
				t.Fatalf("exit code %d, want 1 (err: %v)", got, err)
			}
			if want := "store holds a different run: " + tc.field + " was"; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q should contain %q", err, want)
			}
		})
	}
	// The matching run still resumes.
	same := base
	same.resumeDir = dir
	if _, err := capture(t, func() error { return run(same) }); err != nil {
		t.Fatalf("matching resume must exit 0, got: %v", err)
	}
}

// -trace-out must leave a well-formed Chrome trace_event file: the
// JSON-object container form with displayTimeUnit, balanced B/E pairs
// per (pid, tid), and the run's span vocabulary on the timeline.
func TestRunTraceOut(t *testing.T) {
	// A circuit too large for the biggest library device (272 usable
	// CLBs), so the carve path runs FM and the timeline records
	// fm-pass spans; -check adds the verify span.
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 14, PrimaryOut: 8, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.clb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, check: true, traceOut: tracePath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct span.ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("trace file is not Chrome trace JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want \"ms\"", ct.DisplayTimeUnit)
	}
	type lane struct{ pid, tid int }
	depth := make(map[lane]int)
	names := make(map[string]bool)
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[lane{ev.PID, ev.TID}]++
			names[ev.Name] = true
		case "E":
			depth[lane{ev.PID, ev.TID}]--
			if depth[lane{ev.PID, ev.TID}] < 0 {
				t.Fatalf("unbalanced E for pid=%d tid=%d", ev.PID, ev.TID)
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("pid=%d tid=%d: %d unclosed B event(s)", k.pid, k.tid, d)
		}
	}
	for _, want := range []string{"job", "parse", "search", "attempt", "fm-pass", "fold", "verify"} {
		if !names[want] {
			t.Fatalf("timeline missing %q span (have %v)", want, names)
		}
	}
}

// An unwritable -trace-out file must fail the run with the dedicated
// exit code 5, mirroring the stats-stream contract: a deliverable the
// tool could not write is never a silent success.
func TestRunTraceOutWriteError(t *testing.T) {
	path := writeCLB(t)
	_, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1,
			traceOut: filepath.Join(t.TempDir(), "no-such-dir", "trace.json")})
	})
	if err == nil {
		t.Fatal("expected error from unwritable trace path")
	}
	if !strings.Contains(err.Error(), "trace export") {
		t.Fatalf("error should name the trace export: %v", err)
	}
	if got := exitCode(err); got != 5 {
		t.Fatalf("exit code %d, want 5", got)
	}
}

func TestRunJSONAndParts(t *testing.T) {
	path := writeCLB(t)
	dir := filepath.Join(t.TempDir(), "parts")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, outDir: dir, jsonOut: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, `"device_cost"`) || !contains(out, `"parts"`) {
		t.Fatalf("missing JSON output:\n%s", out)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no part files written")
	}
	// Every exported part parses back as a valid circuit.
	for _, fe := range files {
		f, err := os.Open(filepath.Join(dir, fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := hypergraph.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", fe.Name(), err)
		}
		if g.NumCells() == 0 {
			t.Fatalf("%s: empty part", fe.Name())
		}
	}
}
