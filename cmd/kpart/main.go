// Command kpart partitions a circuit into a heterogeneous FPGA
// library, minimizing total device cost (Eq. 1) and interconnect
// (Eq. 2) with optional functional replication.
//
// Input is either a mapped circuit (.clb, see internal/hypergraph) or
// a gate-level netlist (.gnl, see internal/netlist), which is
// technology-mapped first.
//
// Usage:
//
//	kpart [-t 1] [-solutions 50] [-seed 1] [-timeout 30s] [-gate] [-v]
//	      [-store dir] [-resume dir] circuit.clb
//
// With -store, the search reduction is persisted to a crash-safe
// append-only store after every folded attempt;
// -resume continues an interrupted run from the newest checkpoint
// (the trace stream reports the resume point as resumed_from_attempt).
// The store records the circuit path and every flag that shapes the
// search; opening it with a different one fails with exit 1.
//
// Exit codes: 0 = success; 1 = error (I/O, configuration,
// verification); 2 = infeasible instance (the full attempt budget ran
// without a feasible solution); 3 = -timeout expired before any
// feasible solution; 4 = malformed input (parse error or resource
// limit in the circuit or the -board file, with line/column context on
// stderr); 5 = the -trace-out span timeline could not be written.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/kway"
	"fpgapart/internal/netlist"
	"fpgapart/internal/prof"
	"fpgapart/internal/report"
	"fpgapart/internal/search"
	"fpgapart/internal/server"
	"fpgapart/internal/span"
	"fpgapart/internal/techmap"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/textparse"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
	"fpgapart/internal/verify"
)

func main() {
	var cfg runConfig
	cfg.bindFlags(flag.CommandLine)
	profFlags := prof.Register(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: kpart [flags] <circuit.clb|circuit.gnl>")
		flag.PrintDefaults()
		fmt.Fprint(os.Stderr, `
exit codes:
  0  success
  1  error (I/O, configuration, verification failure)
  2  infeasible instance: the attempt budget ran without a feasible solution
  3  -timeout expired before any feasible solution was found
  4  malformed input: parse error or resource limit in the circuit or the
     -board file (line/column on stderr)
  5  -trace-out span timeline could not be written
`)
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	cfg.path = flag.Arg(0)
	cfg.gate = cfg.gate || strings.HasSuffix(cfg.path, ".gnl")
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpart:", err)
		os.Exit(1)
	}
	err = run(cfg)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpart:", err)
		os.Exit(exitCode(err))
	}
}

// bindFlags binds kpart's flags on fs to the fields of cfg; fs.Parse
// fills them in.
func (cfg *runConfig) bindFlags(fs *flag.FlagSet) {
	fs.IntVar(&cfg.threshold, "t", 1, "replication potential threshold T (0 = maximum replication, -1 disables replication)")
	fs.IntVar(&cfg.solutions, "solutions", 50, "feasible k-way solutions to generate")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.BoolVar(&cfg.gate, "gate", false, "input is a gate-level netlist (.gnl); map it first")
	fs.BoolVar(&cfg.verbose, "v", false, "print per-part details")
	fs.BoolVar(&cfg.check, "verify", false, "verify every accepted carve and solution in-loop, plus the final result")
	fs.StringVar(&cfg.outDir, "o", "", "write each part as <dir>/<circuit>.pN.clb")
	fs.BoolVar(&cfg.jsonOut, "json", false, "print the solution summary as JSON")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock search budget (0 = unlimited); on expiry the best solution so far is kept")
	fs.IntVar(&cfg.maxStale, "max-stale", 0, "stop after this many consecutive non-improving solutions (0 = run all)")
	fs.IntVar(&cfg.refineWorkers, "refine-workers", 0, "FM refinement workers: >=2 runs the deterministic parallel sub-round engine on states at or above fm's parallel cutoff (smaller ones refine serially), 0 or 1 the classic serial engine")
	fs.BoolVar(&cfg.multilevel, "multilevel", false, "seed large carve subproblems with the multilevel V-cycle (coarsen, partition, uncoarsen+refine)")
	fs.BoolVar(&cfg.progress, "progress", false, "print per-solution progress and search statistics to stderr")
	fs.StringVar(&cfg.statsJSON, "stats-json", "", "stream structured engine events (FM passes, carves, solutions) as JSONL to this file")
	fs.StringVar(&cfg.board, "board", "", "multi-FPGA board topology: a spec (crossbar:N[:CAP], linear:N[:CAP], mesh:RxC[:CAP]) or a board-description file; places every solution on the board's slots and scores its hop-weighted interconnect")
	fs.StringVar(&cfg.metricsOut, "metrics-out", "", "write a final metrics snapshot (Prometheus text format 0.0.4) to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "record the run as a span tree and write it as Chrome trace_event JSON (load in Perfetto or chrome://tracing) to this file")
	fs.StringVar(&cfg.storeDir, "store", "", "durable checkpoint store directory: the search reduction is persisted after every folded attempt so an interrupted run can continue with -resume")
	fs.StringVar(&cfg.resumeDir, "resume", "", "resume an interrupted run from the newest checkpoint in this store directory (implies -store DIR; flags and circuit must match the original run)")
}

// exitCode maps failure modes to the documented exit codes. The budget
// check comes first: a timeout with no feasible solution wraps both
// error types, and "ran out of time" is the actionable diagnosis.
func exitCode(err error) int {
	var texp *traceExportError
	if errors.As(err, &texp) {
		return 5
	}
	var budget *search.ErrBudget
	if errors.As(err, &budget) {
		return 3
	}
	var inf *kway.InfeasibleError
	if errors.As(err, &inf) {
		return 2
	}
	var perr *textparse.ParseError
	if errors.As(err, &perr) {
		return 4
	}
	return 1
}

type runConfig struct {
	path          string
	threshold     int
	solutions     int
	seed          int64
	gate          bool
	verbose       bool
	check         bool
	outDir        string
	jsonOut       bool
	timeout       time.Duration
	maxStale      int
	multilevel    bool
	refineWorkers int
	progress      bool
	statsJSON     string
	metricsOut    string
	traceOut      string
	board         string
	storeDir      string
	resumeDir     string
}

// cliJobID is the fixed job identity a CLI run records in its store;
// one store directory holds one resumable run.
const cliJobID = "cli"

// runIdentity is the store's submit record: the circuit and every flag
// that shapes the search result, keyed by flag name. A store holding a
// different identity is refused, because replaying its incumbent
// attempt against another circuit or setup would silently fold the
// wrong search.
type runIdentity struct {
	Circuit       string `json:"circuit"`
	Gate          bool   `json:"gate"`
	Threshold     int    `json:"t"`
	Solutions     int    `json:"solutions"`
	Seed          int64  `json:"seed"`
	MaxStale      int    `json:"max-stale"`
	Multilevel    bool   `json:"multilevel"`
	RefineWorkers int    `json:"refine-workers"`
	Board         string `json:"board"`
}

func (cfg runConfig) identity() runIdentity {
	circuit, err := filepath.Abs(cfg.path)
	if err != nil {
		circuit = cfg.path
	}
	return runIdentity{
		Circuit: circuit, Gate: cfg.gate, Threshold: cfg.threshold,
		Solutions: cfg.solutions, Seed: cfg.seed, MaxStale: cfg.maxStale,
		Multilevel: cfg.multilevel, RefineWorkers: cfg.refineWorkers, Board: cfg.board,
	}
}

// checkIdentity names the first field of the recorded identity that
// differs from this run's, or returns nil when they match.
func checkIdentity(recorded json.RawMessage, want runIdentity) error {
	var got runIdentity
	if err := json.Unmarshal(recorded, &got); err != nil {
		return fmt.Errorf("corrupt submit record: %w", err)
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if g.Field(i).Interface() != w.Field(i).Interface() {
			return fmt.Errorf("store holds a different run: %s was %v, now %v",
				g.Type().Field(i).Tag.Get("json"), g.Field(i), w.Field(i))
		}
	}
	return nil
}

// openRunStore opens (or creates) the durable checkpoint store, refuses
// a store recorded by a different run and, for -resume, loads the
// newest persisted checkpoint of the prior run.
func openRunStore(cfg runConfig) (*jobstore.Store, *kway.SearchCheckpoint, error) {
	dir, mode := cfg.storeDir, "store"
	if dir == "" {
		dir = cfg.resumeDir
	}
	if cfg.resumeDir != "" {
		mode = "resume"
	}
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*jobstore.Store, *kway.SearchCheckpoint, error) {
		store.Close()
		return nil, nil, fmt.Errorf("%s %s: %w", mode, dir, err)
	}
	job := store.Job(cliJobID)
	if job == nil {
		if err := store.AppendSubmit(cliJobID, cfg.identity()); err != nil {
			return fail(err)
		}
	} else if err := checkIdentity(job.Request, cfg.identity()); err != nil {
		return fail(err)
	}
	if cfg.resumeDir == "" {
		return store, nil, nil
	}
	if job == nil || len(job.Checkpoint) == 0 {
		fmt.Fprintf(os.Stderr, "kpart: no checkpoint in %s; starting fresh\n", cfg.resumeDir)
		return store, nil, nil
	}
	resume := new(kway.SearchCheckpoint)
	if err := json.Unmarshal(job.Checkpoint, resume); err != nil {
		return fail(fmt.Errorf("corrupt checkpoint: %w", err))
	}
	return store, resume, nil
}

// progressSink prints one stderr line per folded solution attempt.
// Solution events are emitted by the single-threaded index-ordered
// reduction, so the lines appear in deterministic order.
type progressSink struct{ total int }

func (p progressSink) Event(e trace.Event) {
	if e.Kind != trace.KindSolution {
		return
	}
	if !e.Feasible {
		fmt.Fprintf(os.Stderr, "kpart: attempt %d/%d: infeasible\n", e.Attempt+1, p.total)
		return
	}
	marker := ""
	if e.Improved {
		marker = "  (new best)"
	}
	fmt.Fprintf(os.Stderr, "kpart: attempt %d/%d: k=%d cost=%.0f%s\n", e.Attempt+1, p.total, e.Parts, e.Cost, marker)
}

func run(cfg runConfig) error {
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", cfg.timeout)
	}
	// Span tracing: one "job" root span for the run, trace ID derived
	// from the CLI store identity (cliJobID, seed, solutions) so a
	// -resume run records into the same logical trace as the run it
	// continues. Events ride on the spans, so any event sink arms them;
	// only -trace-out writes the timeline. Disarmed (the zero Running),
	// every Start below is a predicted no-op branch.
	var tracer *span.Tracer
	var jobRun span.Running
	if cfg.traceOut != "" || cfg.progress || cfg.statsJSON != "" || cfg.metricsOut != "" {
		tracer = span.NewTracer(span.Options{Process: "kpart"})
		tid := span.DeriveTraceID(cliJobID, cfg.seed, cfg.solutions)
		jobRun = tracer.Root(tid, 0).Start("job", -1)
	}

	var sinks []trace.Sink
	if cfg.progress {
		sinks = append(sinks, progressSink{total: cfg.solutions})
	}
	var jsonl *trace.JSONL
	var jsonlFile *os.File
	var err error
	if cfg.statsJSON != "" {
		jsonlFile, err = os.Create(cfg.statsJSON)
		if err != nil {
			return err
		}
		jsonl = trace.NewJSONL(jsonlFile)
		sinks = append(sinks, jsonl)
	}
	var board *topology.Board
	if cfg.board != "" {
		board, err = topology.FromArg(cfg.board)
		if err != nil {
			return err
		}
	}
	// One bridge counts the events for both the -progress stats line
	// and the -metrics-out snapshot.
	var reg *telemetry.Registry
	var bridge *telemetry.Bridge
	var boardGauges *telemetry.BoardGauges
	if cfg.progress || cfg.metricsOut != "" {
		reg = telemetry.NewRegistry()
		bridge = telemetry.NewBridge(reg)
		sinks = append(sinks, bridge)
		if board != nil && cfg.metricsOut != "" {
			boardGauges = telemetry.NewBoardGauges(reg, board)
		}
	}
	scope := jobRun.Scope().WithSink(trace.Multi(sinks...))

	parseSpan := scope.Start("parse", -1)
	f, err := os.Open(cfg.path)
	if err != nil {
		return err
	}
	defer f.Close()

	var g *hypergraph.Graph
	if cfg.gate {
		n, err := netlist.Read(f)
		if err != nil {
			return err
		}
		m, err := techmap.Map(n, techmap.Options{Seed: cfg.seed})
		if err != nil {
			return err
		}
		s := n.Stats()
		fmt.Printf("mapped %s: %d gates (%d FF) -> %d CLBs, %d IOBs\n",
			n.Name, s.Gates, s.DFFs, m.Graph.NumCells(), m.Graph.NumTerminals())
		g = m.Graph
	} else {
		g, err = hypergraph.Read(f)
		if err != nil {
			return err
		}
	}
	parseSpan.Detail(fmt.Sprintf("circuit=%s cells=%d", g.Name, g.NumCells()))
	parseSpan.EndEvent(trace.Event{Kind: trace.KindPhase, Phase: trace.PhaseParse})
	jobRun.Detail(fmt.Sprintf("circuit=%s seed=%d solutions=%d", g.Name, cfg.seed, cfg.solutions))

	// Durable checkpoint store: every persisted snapshot is fsync'd
	// before the append returns, so a crash at any point loses at most
	// the attempts folded since the last checkpoint.
	var store *jobstore.Store
	var resumeCP *kway.SearchCheckpoint
	var storeErr error
	if cfg.storeDir != "" || cfg.resumeDir != "" {
		store, resumeCP, err = openRunStore(cfg)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	opts := core.Options{
		Threshold:     &cfg.threshold,
		Solutions:     cfg.solutions,
		Seed:          cfg.seed,
		Verify:        cfg.check,
		MaxStale:      cfg.maxStale,
		Multilevel:    cfg.multilevel,
		RefineWorkers: cfg.refineWorkers,
		Board:         board,
		Resume:        resumeCP,
		Spans:         scope,
	}
	if store != nil {
		opts.Checkpoint = func(cp kway.SearchCheckpoint) {
			if err := store.AppendCheckpoint(cliJobID, cp); err != nil && storeErr == nil {
				storeErr = fmt.Errorf("checkpoint store: %w", err)
			}
		}
	}
	// The -timeout budget is a context deadline, observed only at the
	// search's deterministic checkpoints (see core.PartitionContext).
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	res, err := core.PartitionContext(ctx, g, opts)
	if boardGauges != nil && err == nil {
		graphs := make([]*hypergraph.Graph, len(res.Parts))
		for i, p := range res.Parts {
			graphs[i] = p.Graph
		}
		boardGauges.SetLoads(verify.LinkLoads(board, graphs))
	}
	if cfg.progress {
		w := bridge.Work()
		fmt.Fprintf(os.Stderr, "kpart: stats: %d FM passes, %d moves; %d carves (%d rejected), %d replicas, %d rollbacks\n",
			w.Passes, w.Moves, w.Carves, w.RejectedCarves, w.Replicas, w.Rollbacks)
	}
	if jsonl != nil {
		// The stats stream is a deliverable: a sink write error — from
		// any event append or from the final close — must fail the run
		// with a non-zero exit, not leave a silently truncated file.
		jerr := jsonl.Err()
		if cerr := jsonlFile.Close(); jerr == nil {
			jerr = cerr
		}
		if jerr != nil && err == nil {
			err = fmt.Errorf("stats stream %s: %w", cfg.statsJSON, jerr)
		}
	}
	if cfg.metricsOut != "" {
		// The snapshot is written even when the search failed: the
		// counters up to the failure are exactly what an operator wants.
		if merr := reg.WriteFile(cfg.metricsOut); merr != nil && err == nil {
			err = fmt.Errorf("metrics snapshot %s: %w", cfg.metricsOut, merr)
		}
	}
	if cfg.traceOut != "" {
		// End the job span first so the root frame is in the timeline;
		// the export runs even on search failure — the spans up to the
		// failure are the diagnosis. An unwritable timeline is its own
		// failure mode (exit 5), mirroring the stats-stream contract.
		jobRun.End()
		spans, _ := tracer.Collector().Trace(jobRun.Scope().TraceID())
		if terr := writeTrace(cfg.traceOut, spans); terr != nil && err == nil {
			err = terr
		}
	}
	if store != nil && err == nil && storeErr == nil {
		// A terminal record marks the store complete; a later -resume of
		// the same directory replays the finished reduction and exits 0
		// instead of redoing the search.
		if derr := store.AppendDone(cliJobID, map[string]any{"device_cost": res.Summary.DeviceCost()}); derr != nil {
			storeErr = derr
		}
	}
	if storeErr != nil && err == nil {
		// Durability is a deliverable: a store the run could not append
		// to must fail loudly, not pose as a valid resume point.
		err = fmt.Errorf("checkpoint store %s: %w", cfg.storeDir, storeErr)
	}
	if err != nil {
		return err
	}
	s := res.Summary
	fmt.Printf("circuit %s: %d cells, %d CLBs, %d terminals\n",
		g.Name, g.NumCells(), g.TotalArea(), g.NumTerminals())
	fmt.Printf("partition: k=%d  cost=%.0f  avg CLB util=%.0f%%  avg IOB util=%.0f%%  replicated=%d (%.1f%%)\n",
		s.K(), s.DeviceCost(), 100*s.AvgCLBUtil(), 100*s.AvgIOBUtil(),
		s.ReplicatedCells(), s.ReplicatedPct(res.SourceCells))
	if res.Summary.HasTopo {
		fmt.Printf("topology: board %s  hop-weighted interconnect=%d\n", board.Name, res.Summary.TopoCost)
	}
	fmt.Printf("search: %d feasible solutions, %d failed attempts; cost spread min=%.0f mean=%.0f max=%.0f\n",
		res.Feasible, res.Failed, res.CostMin, res.CostMean, res.CostMax)
	if res.Resumed {
		fmt.Printf("search: resumed from attempt %d\n", res.ResumedFrom)
	}
	if res.Stopped != "" {
		fmt.Printf("search: stopped early (%s) with the best solution so far\n", res.Stopped)
	}
	if cfg.check {
		if err := res.Verify(g); err != nil {
			return err
		}
		fmt.Println("verify: partition is consistent (coverage, producers, IOB accounting)")
	}
	if cfg.verbose {
		t := report.NewTable("", "Part", "Device", "CLBs", "Util", "Terms", "IOBs", "Cells", "Replicas")
		for i, p := range res.Parts {
			t.Row(fmt.Sprintf("P%d", i), p.Device.Name, p.Graph.TotalArea(),
				fmt.Sprintf("%.0f%%", 100*p.Device.Utilization(p.Graph.TotalArea())),
				p.Graph.NumTerminals(), p.Device.IOBs, p.Graph.NumCells(), p.Replicas)
		}
		t.Render(os.Stdout)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(server.ResultJSON(g, res, board)); err != nil {
			return err
		}
	}
	if cfg.outDir != "" {
		if err := writeParts(cfg.outDir, g.Name, res); err != nil {
			return err
		}
		fmt.Printf("wrote %d part netlists to %s\n", len(res.Parts), cfg.outDir)
	}
	return nil
}

// traceExportError marks a -trace-out timeline that could not be
// written; it maps to exit code 5.
type traceExportError struct{ err error }

func (e *traceExportError) Error() string { return e.err.Error() }
func (e *traceExportError) Unwrap() error { return e.err }

// writeTrace writes the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return &traceExportError{fmt.Errorf("trace export %s: %w", path, err)}
	}
	err = span.WriteChromeTrace(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return &traceExportError{fmt.Errorf("trace export %s: %w", path, err)}
	}
	return nil
}

// writeParts materializes each part as a standalone .clb file.
func writeParts(dir, name string, res core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, p := range res.Parts {
		path := filepath.Join(dir, fmt.Sprintf("%s.p%d.clb", name, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = hypergraph.Write(f, p.Graph)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
