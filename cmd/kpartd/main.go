// Command kpartd serves the partitioning engine over HTTP/JSON (see
// internal/server for the API and its admission/degradation
// contracts).
//
// Usage:
//
//	kpartd [-addr :8080] [-workers 2] [-queue 8] [-default-timeout 30s]
//	       [-max-timeout 5m] [-drain-timeout 30s] [-store dir]
//	       [-attempt-timeout 2m] [-tries 3] [-hedge-after 0]
//	       [-pprof] [-log-json]
//
// -workers is polymorphic: an integer sizes the local worker pool,
// while a comma-separated list of http:// base URLs switches the
// daemon into coordinator mode — each job's search attempts fan out
// to those worker daemons (deterministic attempt→seed sharding, with
// per-attempt timeouts, bounded retries with jittered backoff, and
// optional request hedging via -hedge-after), and fall back to local
// execution when the whole pool is unreachable. Results are
// byte-identical to a local run either way.
//
// -store makes the job lifecycle durable: submissions, state
// transitions, search checkpoints and results land in an fsync'd
// append-only WAL under the given directory. On restart the daemon
// replays the store, re-enqueues interrupted jobs ahead of new work
// (status carries "recovered": true) and serves completed results
// without re-running them.
//
// Endpoints:
//
//	POST /v1/jobs          submit an asynchronous job (202; 200 on an
//	                       idempotent replay; 429 + Retry-After when the
//	                       queue is full; 503 while draining)
//	GET  /v1/jobs/{id}     retry-safe job status and result lookup
//	POST /v1/partition     synchronous partition (JSON body, or a raw
//	                       .clb body with parameters in the query string)
//	GET  /healthz          liveness (always 200 while the process serves)
//	GET  /readyz           readiness: JSON {ready, draining, queue_depth},
//	                       503 once draining starts
//	GET  /metrics          Prometheus text exposition (engine + HTTP)
//	GET  /debug/buildinfo  module and VCS metadata of the binary
//	GET  /debug/trace/{job}     one job's span tree as JSON (cross-process
//	                            in coordinator mode: worker spans are
//	                            stitched in via traceparent propagation)
//	GET  /debug/flightrecorder  the last N completed spans of this process
//	GET  /debug/pprof/*    runtime profiles (only with -pprof)
//
// Logs are structured (log/slog): every request carries an
// X-Request-Id (a well-formed inbound one is adopted, so a
// coordinator's ID follows its jobs onto worker logs), and job
// lifecycle records join the job ID back to the submitting request's
// ID. -log-json switches from logfmt-style text to one JSON object
// per line.
//
// On SIGTERM/SIGINT the daemon stops admission, drains queued and
// in-flight jobs, and exits; jobs still running when -drain-timeout
// expires are cut at their next deterministic carve boundary. With
// -store, the drain also writes a final metrics snapshot (Prometheus
// text, the same format kpart -metrics-out emits) to metrics.prom in
// the store directory, so the telemetry of the last moments of a
// process — otherwise lost with the scrape endpoint — survives.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpgapart/internal/coord"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/server"
	"fpgapart/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.String("workers", "2", "concurrent partition jobs (an integer), or a comma-separated list of worker daemon base URLs to coordinate, e.g. http://a:8080,http://b:8080")
	queue := flag.Int("queue", 8, "bounded job queue depth (full queue sheds load with 429)")
	defTimeout := flag.Duration("default-timeout", 30*time.Second, "per-job search budget when the request sets none")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested search budgets")
	drain := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before cutting them")
	storeDir := flag.String("store", "", "durable job store directory (WAL + snapshot); restart recovers interrupted jobs and replays completed ones")
	attemptTimeout := flag.Duration("attempt-timeout", 2*time.Minute, "coordinator mode: per-attempt deadline for one worker RPC")
	tries := flag.Int("tries", 3, "coordinator mode: tries per attempt across the worker ring before local fallback")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator mode: duplicate a straggling attempt on the next worker after this delay (0 disables hedging)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator-only surface)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON objects instead of text")
	flag.Parse()

	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(h).With("component", "kpartd")

	// -workers is polymorphic: "4" sizes the local pool, a URL list
	// selects coordinator mode (the local pool keeps its default size
	// to drive the coordinator's per-job fan-out).
	poolSize := 0
	var workerURLs []string
	if n, err := strconv.Atoi(strings.TrimSpace(*workers)); err == nil {
		if n < 0 {
			logger.Error("bad -workers", "value", *workers)
			os.Exit(2)
		}
		poolSize = n
	} else {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workerURLs = append(workerURLs, w)
			}
		}
		if len(workerURLs) == 0 {
			logger.Error("bad -workers", "value", *workers)
			os.Exit(2)
		}
	}

	if *queue < 0 {
		logger.Error("bad -queue", "value", *queue)
		os.Exit(2)
	}
	if *tries < 0 {
		logger.Error("bad -tries", "value", *tries)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	var (
		store *jobstore.Store
		err   error
	)
	if *storeDir != "" {
		var recovered []*jobstore.Job
		store, recovered, err = jobstore.Open(jobstore.Options{
			Dir:     *storeDir,
			Logger:  logger,
			Metrics: jobstore.NewMetrics(reg),
		})
		if err != nil {
			logger.Error("opening job store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		incomplete := 0
		for _, j := range recovered {
			if !j.Complete() {
				incomplete++
			}
		}
		logger.Info("job store open", "dir", *storeDir, "jobs", len(recovered), "recovering", incomplete)
	}

	var pool *coord.Pool
	if len(workerURLs) > 0 {
		pool, err = coord.New(coord.Config{
			Workers:        workerURLs,
			AttemptTimeout: *attemptTimeout,
			Tries:          *tries,
			HedgeAfter:     *hedgeAfter,
			Logger:         logger,
			Metrics:        coord.NewMetrics(reg),
		})
		if err != nil {
			logger.Error("bad coordinator flags", "err", err)
			os.Exit(2)
		}
		logger.Info("coordinator mode", "workers", workerURLs,
			"attempt_timeout", *attemptTimeout, "tries", *tries, "hedge_after", *hedgeAfter)
	}

	cfg := server.Config{
		Workers:        poolSize,
		QueueDepth:     *queue,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
		Metrics:        reg,
		EnablePprof:    *pprofOn,
		Store:          store,
	}
	if pool != nil {
		cfg.Distribute = pool.Distribute
	}
	srv := server.New(cfg)
	if pool != nil {
		// Local fallback: when every worker is unreachable, attempts
		// degrade to in-process execution with identical results.
		pool.SetLocal(srv.LocalAttempt())
	}
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue, "pprof", *pprofOn)

	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received, draining", "timeout", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job queue concurrently with the HTTP shutdown:
	// synchronous handlers block on their jobs, so the worker pool must
	// finish for hs.Shutdown to return.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Shutdown(dctx) }()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	drainFailed := false
	if err := <-drainErr; err != nil {
		logger.Error("drain cut short; in-flight jobs were canceled", "err", err)
		drainFailed = true
	}
	if store != nil {
		// The scrape endpoint dies with the process; persist a last
		// metrics snapshot next to the store so the final counters of
		// this process life stay inspectable.
		if err := reg.WriteFile(filepath.Join(*storeDir, "metrics.prom")); err != nil {
			logger.Warn("final metrics snapshot", "err", err)
		} else {
			logger.Info("final metrics snapshot written", "path", filepath.Join(*storeDir, "metrics.prom"))
		}
		// Compact before closing so the next start replays a snapshot
		// plus a short tail instead of the full history. Jobs the drain
		// cut are still incomplete in the store and recover on restart.
		if err := store.Compact(); err != nil {
			logger.Warn("store compaction", "err", err)
		}
		if err := store.Close(); err != nil {
			logger.Error("closing job store", "err", err)
			os.Exit(1)
		}
	}
	if drainFailed {
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
