package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/coord"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/server"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
)

// The kpartd-coord workload: a coordinator server with a durable job
// store fans every job's attempts out over loopback HTTP to two worker
// servers, all in this process. Closed-loop clients each send their
// next sync job only after the previous one returned, as kpartd
// callers that wait for results do.
const (
	clients      = 2
	jobSolutions = 8
	// checkEvery: every checkEvery-th job is compared with a local
	// core.Partition of the same circuit and seed.
	checkEvery = 20
	// quickJobs is the job count of a -quick run.
	quickJobs = 40
	// qualityJobs: device_cost and avg_iob_util average the first
	// qualityJobs jobs, so they depend on the seed alone and not on how
	// many jobs a run completes.
	qualityJobs = 60
)

var kpartdCircuits = []string{"c3540", "s5378", "s9234"}

// jobSeed is the search seed of job i.
func jobSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// circuitText is one workload circuit, as sent and as kbench reads it.
type circuitText struct {
	text string
	g    *hypergraph.Graph
}

// kpartdInputs generates the job circuits and reads each back from its
// text under sc.
func kpartdInputs(sc span.Scope, quick bool) ([]circuitText, error) {
	var out []circuitText
	for _, name := range kpartdCircuits {
		c, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown suite circuit %s", name)
		}
		if quick {
			c = c.Small(8)
		}
		g, err := bench.Generate(c.Params)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", name, err)
		}
		rg, text, err := roundTrip(sc, g)
		if err != nil {
			return nil, err
		}
		out = append(out, circuitText{text: string(text), g: rg})
	}
	return out, nil
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	hs   *http.Server
	done chan error
}

func serve(h http.Handler) (*httpServer, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, "http://" + ln.Addr().String(), nil
}

// stop shuts the listener down and waits for Serve to return.
func (s *httpServer) stop(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// countingBody and countingWriter tally the bytes a worker handler
// reads and writes.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	k, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(k))
	return k, err
}

func counting(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = countingBody{r.Body, n}
		h.ServeHTTP(countingWriter{w, n}, r)
	})
}

// stack is one running coordinator with its store and two workers.
type stack struct {
	dir     string
	store   *jobstore.Store
	reg     *telemetry.Registry
	coord   *server.Server
	workers []*server.Server
	https   []*httpServer
	url     string
	// client carries the clients' jobs to the coordinator, rpc the
	// coordinator's attempts to the workers.
	client, rpc *http.Client
	rpcBytes    atomic.Int64
	// coordTracer and workerTracers are kbench's tracers, armed only
	// for a traced phase (nil: the servers use their default tracers).
	coordTracer   *span.Tracer
	workerTracers []*span.Tracer
}

// startStack opens a fresh store and starts the three servers.
func startStack(traced bool) (st *stack, err error) {
	st = &stack{reg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.stop())
			st = nil
		}
	}()
	if st.dir, err = os.MkdirTemp("", "kbench-wal-"); err != nil {
		return st, err
	}
	if st.store, _, err = jobstore.Open(jobstore.Options{Dir: st.dir, Metrics: jobstore.NewMetrics(st.reg)}); err != nil {
		return st, err
	}
	var urls []string
	for w := 0; w < 2; w++ {
		cfg := server.Config{Workers: 1}
		if traced {
			cfg.Tracer = newSpanTracer(fmt.Sprintf("worker%d", w))
			st.workerTracers = append(st.workerTracers, cfg.Tracer)
		}
		srv := server.New(cfg)
		st.workers = append(st.workers, srv)
		hs, url, err := serve(counting(srv, &st.rpcBytes))
		if err != nil {
			return st, err
		}
		st.https = append(st.https, hs)
		urls = append(urls, url)
	}
	st.rpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients * searchWorkers}}
	pool, err := coord.New(coord.Config{Workers: urls, Client: st.rpc, Concurrency: searchWorkers})
	if err != nil {
		return st, err
	}
	cfg := server.Config{Workers: clients, Store: st.store, Distribute: pool.Distribute, Metrics: st.reg}
	if traced {
		st.coordTracer = newSpanTracer("coord")
		cfg.Tracer = st.coordTracer
	}
	st.coord = server.New(cfg)
	hs, url, err := serve(st.coord)
	if err != nil {
		return st, err
	}
	st.https = append(st.https, hs)
	st.url = url
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return st, nil
}

// stop drains the servers front to back, closes the store and removes
// its directory.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Close the clients' idle connections first: http.Server.Shutdown
	// waits up to 5 s for a connection that was dialed but never sent a
	// request, and the transports dial such spares.
	for _, c := range []*http.Client{st.client, st.rpc} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	var errs []error
	for i := len(st.https) - 1; i >= 0; i-- {
		errs = append(errs, st.https[i].stop(ctx))
	}
	if st.coord != nil {
		errs = append(errs, st.coord.Shutdown(ctx))
	}
	for _, w := range st.workers {
		errs = append(errs, w.Shutdown(ctx))
	}
	if st.store != nil {
		errs = append(errs, st.store.Close())
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// fsync reads the store's append count and total fsync time.
func (st *stack) fsync() (appends int64, seconds float64) {
	h := st.reg.Histogram(jobstore.MetricFsyncSeconds, "", telemetry.LatencyBuckets())
	return h.Count(), h.Sum()
}

// jobRec is one job as its client saw it.
type jobRec struct {
	i     int
	latMS float64
	res   *server.JobResult
	err   error
}

// latencies lists the latencies of the jobs that succeeded; a failed
// job fails the run, so it is kept out of the percentiles.
func latencies(recs []jobRec) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, r.latMS)
		}
	}
	return out
}

// kpartdRun drives one kpartd-coord run.
type kpartdRun struct {
	cfg      config
	circuits []circuitText
	res      *result
	mu       sync.Mutex // guards res.agg during a traced phase
}

// drive runs the closed loop on st from job index first until the
// deadline or until count jobs were sent, and returns the jobs in index
// order with the loop's wall time.
func (k *kpartdRun) drive(st *stack, deadline time.Time, first, count int) ([]jobRec, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []jobRec
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				if n >= count {
					return
				}
				rec := k.job(st, first+n)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i })
	return recs, window
}

// stackJobs bounds one stack's life. kpartd keeps every job it ran —
// request text, parsed circuit and result — for GET /v1/jobs/{id}, so
// the process grows by about 2.5 MB per job here, most of it the
// workers' copies of the circuit. Restarting the stack every stackJobs
// jobs bounds the benchmark's memory; peak_rss_mb is the peak of a
// stackJobs-job daemon life.
const stackJobs = 50

// phaseTotals is what one phase of a run measured.
type phaseTotals struct {
	recs     []jobRec
	window   time.Duration // summed over stack lives, restarts excluded
	appends  int64
	fsyncS   float64
	rpcBytes int64
}

// phase runs jobs from index first until the deadline, or until count
// jobs when count > 0, on st and on the fresh stacks that replace it
// every stackJobs jobs. It stops every stack it used.
func (k *kpartdRun) phase(st *stack, deadline time.Time, first, count int) (phaseTotals, error) {
	var p phaseTotals
	traced := st.coordTracer != nil
	for {
		n := stackJobs
		if count > 0 {
			n = min(n, count-len(p.recs))
		}
		recs, window := k.drive(st, deadline, first+len(p.recs), n)
		p.recs = append(p.recs, recs...)
		p.window += window
		appends, fsyncS := st.fsync()
		p.appends += appends
		p.fsyncS += fsyncS
		p.rpcBytes += st.rpcBytes.Load()
		if err := st.stop(); err != nil {
			return p, err
		}
		if !time.Now().Before(deadline) || (count > 0 && len(p.recs) >= count) || len(recs) == 0 {
			return p, nil
		}
		var err error
		if st, err = startStack(traced); err != nil {
			return p, err
		}
	}
}

// job sends job i as a sync request and, in a traced phase, folds its
// stitched trace into the aggregate.
func (k *kpartdRun) job(st *stack, i int) jobRec {
	rec := jobRec{i: i}
	seed := jobSeed(k.cfg.seed, i)
	body, err := json.Marshal(server.JobRequest{Circuit: k.circuits[i%len(k.circuits)].text, Solutions: jobSolutions, Seed: seed})
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	resp, err := st.client.Post(st.url+"/v1/partition", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var js server.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	rec.latMS = float64(time.Since(t0)) / float64(time.Millisecond)
	switch {
	case derr != nil:
		rec.err = fmt.Errorf("job %d: decoding response: %w", i, derr)
	case resp.StatusCode != http.StatusOK || js.State != server.StateDone || js.Result == nil:
		rec.err = fmt.Errorf("job %d: HTTP %d state %q: %s", i, resp.StatusCode, js.State, js.Error)
	default:
		rec.res = js.Result
	}
	if rec.err == nil && st.coordTracer != nil {
		rec.err = k.foldTrace(st, span.DeriveTraceID(js.ID, seed, jobSolutions))
	}
	return rec
}

// foldTrace adds one job's stitched trace to the aggregate. The
// coordinator derives a sync job's trace from its ID, seed and
// solutions; the workers' slices of it arrive ingested.
func (k *kpartdRun) foldTrace(st *stack, id span.TraceID) error {
	spans, dropped := st.coordTracer.Collector().Trace(id)
	for _, t := range st.workerTracers {
		_, d := t.Collector().Trace(id)
		dropped += d
	}
	if dropped > 0 {
		return fmt.Errorf("span collectors dropped %d spans of trace %s", dropped, id)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s is missing from the coordinator's collector", id)
	}
	k.mu.Lock()
	k.res.agg.add(spans, "coord")
	k.mu.Unlock()
	return nil
}

// check compares job i's result with a local core.Partition of the same
// circuit and seed, and verifies the local result.
func (k *kpartdRun) check(tr *tracer, rec jobRec) error {
	c := k.circuits[rec.i%len(k.circuits)]
	local, err := core.Partition(c.g, core.Options{Solutions: jobSolutions, Seed: jobSeed(k.cfg.seed, rec.i)})
	if err != nil {
		return fmt.Errorf("job %d: local reference: %w", rec.i, err)
	}
	root := tr.scope(k.cfg.trace, "check", int64(rec.i))
	v := root.Scope().Start("Result.Verify", -1)
	verr := local.Verify(c.g)
	v.End()
	root.End()
	if err := tr.fold(root, k.res.agg, "kbench"); err != nil {
		return err
	}
	if verr != nil {
		return fmt.Errorf("job %d: local reference fails verification: %w", rec.i, verr)
	}
	got := rec.res
	if got.K != local.Summary.K() || got.DeviceCost != local.Summary.DeviceCost() || len(got.Parts) != len(local.Parts) {
		return fmt.Errorf("job %d: served k=%d cost=%v, local k=%d cost=%v", rec.i, got.K, got.DeviceCost, local.Summary.K(), local.Summary.DeviceCost())
	}
	for j, p := range local.Parts {
		want := server.PartSummary{Device: p.Device.Name, CLBs: p.Graph.TotalArea(),
			Terminals: p.Graph.NumTerminals(), Cells: p.Graph.NumCells(), Replicas: p.Replicas}
		if got.Parts[j] != want {
			return fmt.Errorf("job %d: served part %d is %+v, local %+v", rec.i, j, got.Parts[j], want)
		}
	}
	return nil
}

// runKpartd measures the kpartd-coord workload. A traced run spends the
// first half of its time on an untraced stack and the second half on a
// stack whose servers record into kbench's tracers.
func runKpartd(cfg config) (*result, error) {
	tr := newTracer("kbench")
	k := &kpartdRun{cfg: cfg, res: newResult()}
	res := k.res

	var st *stack
	setup := func(sc span.Scope) error {
		circuits, err := kpartdInputs(sc, cfg.quick)
		if err != nil {
			return err
		}
		k.circuits = circuits
		st, err = startStack(false)
		return err
	}
	for rep := 0; rep < setupsBefore; rep++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
		if err := res.timeSetup(tr, cfg.trace, rep, setup); err != nil {
			return nil, err
		}
	}

	// A quick run sends a fixed number of jobs instead of running out
	// the clock.
	budget, count := cfg.seconds, 0
	if cfg.quick {
		budget, count = time.Hour, quickJobs
	}
	if cfg.trace {
		budget /= 2
		count /= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	// The phase stops the set-up's stack; dropping the reference here
	// lets the jobs it retains be collected once the next stack starts.
	first := st
	st = nil
	plain, err := k.phase(first, time.Now().Add(budget), 0, count)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	recs := plain.recs
	res.latMS = latencies(recs)
	jobs := float64(len(recs))
	res.cpuS = []float64{cpu.Seconds() / jobs}
	res.allocMB = []float64{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / jobs}
	res.opsPerS = jobs / plain.window.Seconds()

	if cfg.trace {
		if st, err = startStack(true); err != nil {
			return nil, err
		}
		// Traced jobs continue the index sequence, so no seed repeats.
		traced, err := k.phase(st, time.Now().Add(budget), len(recs), count)
		if err != nil {
			return nil, err
		}
		n := float64(len(traced.recs))
		res.appends, res.fsyncMS, res.rpcBytes = float64(traced.appends)/n, 1000*traced.fsyncS/n, float64(traced.rpcBytes)/n
		res.tracedLatMS = latencies(traced.recs)
		recs = append(recs, traced.recs...)
	}
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	res.gcCycles = float64(ms2.NumGC - ms0.NumGC)
	for rep := setupsBefore; rep < setupReps; rep++ {
		if err := res.timeSetup(tr, cfg.trace, rep, setup); err != nil {
			return nil, err
		}
		if err := st.stop(); err != nil {
			return nil, err
		}
	}

	quality := min(qualityJobs, len(recs)-len(recs)%len(kpartdCircuits))
	nq := 0
	for _, r := range recs {
		res.attempted++
		if r.err != nil {
			res.fail(r.err)
			continue
		}
		res.attempts += r.res.Feasible + r.res.Failed
		res.feasible += r.res.Feasible
		if r.i < quality {
			res.deviceCost += r.res.DeviceCost
			res.iob += r.res.AvgIOBUtil
			nq++
		}
		if r.i%checkEvery == 0 {
			res.verifyOps++
			if err := k.check(tr, r); err != nil {
				res.fail(err)
			}
		}
	}
	if nq > 0 {
		res.deviceCost /= float64(nq)
		res.iob /= float64(nq)
	}
	res.ops = len(recs)
	return res, nil
}
