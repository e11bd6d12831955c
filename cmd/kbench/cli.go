package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/span"
	"fpgapart/internal/topology"
	"fpgapart/internal/verify"
)

// searchWorkers is the search worker pool of every CLI workload and the
// coordinator's attempt fan-out: the recorded machine has two CPUs, and
// fixed-seed results do not depend on the value.
const searchWorkers = 2

// cliWorkload is one workload that calls core.Partition directly, as
// kpart does: one op partitions every input circuit once.
type cliWorkload struct {
	// inputs generates the workload's circuits, which the seed does not
	// change (see README.md, "Inputs and seeds").
	inputs func(quick bool) ([]*hypergraph.Graph, error)
	// opts is the search configuration, without seed and spans.
	opts core.Options
	// seeds is how many search seeds one op runs per circuit. Averaging
	// over several seeds keeps a run's numbers from hinging on one
	// seed's luck: on board-mesh, one search's Eq. 2 value moves by
	// an interquartile 13% from seed to seed.
	seeds int
	// board, when set, is the board spec of a topology workload.
	board string
}

var cliWorkloads = map[string]cliWorkload{
	// The paper's own traffic: kway carving, serial FM and replication
	// gains do the work; multilevel, parfm and the service do none.
	"suite-flat": {
		inputs: func(quick bool) ([]*hypergraph.Graph, error) {
			var gs []*hypergraph.Graph
			for _, c := range bench.Suite() {
				if quick {
					c = c.Small(8)
				}
				g, err := bench.Generate(c.Params)
				if err != nil {
					return nil, fmt.Errorf("generating %s: %w", c.Name, err)
				}
				gs = append(gs, g)
			}
			return gs, nil
		},
		opts:  core.Options{Solutions: 50, Workers: searchWorkers},
		seeds: 1,
	},
	// An s38584-like circuit almost three times its size: coarsening,
	// the V-cycle levels and parfm dominate; serial FM does no work.
	"large-vcycle": {
		inputs: func(quick bool) ([]*hypergraph.Graph, error) {
			p := bench.Params{Name: "large8000", Cells: 8000, PrimaryIn: 120, PrimaryOut: 200,
				DFFs: 4000, Clustering: 0.7, DistantPackFrac: 0.07, Seed: 38584}
			if quick {
				p.Cells, p.PrimaryIn, p.PrimaryOut, p.DFFs = p.Cells/8, p.PrimaryIn/8, p.PrimaryOut/8, p.DFFs/8
			}
			g, err := bench.Generate(p)
			return []*hypergraph.Graph{g}, err
		},
		opts:  core.Options{Multilevel: true, RefineWorkers: 2, Solutions: 4, Workers: searchWorkers},
		seeds: 1,
	},
	// The same FM and replication layers under net weights: Steiner
	// span gains and a routing check on every solution.
	"board-mesh": {
		inputs: func(quick bool) ([]*hypergraph.Graph, error) {
			p := bench.Params{Name: "mesh1400", Cells: 1400, PrimaryIn: 40, PrimaryOut: 20,
				Clustering: 0.5, Seed: 3}
			if quick {
				p.Cells, p.PrimaryIn, p.PrimaryOut = p.Cells/8, p.PrimaryIn/8, p.PrimaryOut/8
			}
			g, err := bench.Generate(p)
			return []*hypergraph.Graph{g}, err
		},
		opts:  core.Options{Solutions: 50, Workers: searchWorkers},
		seeds: 4,
		board: "mesh:2x4:1048576",
	},
}

// roundTrip encodes g in the .clb text format and reads it back, as kpart
// reads its input file. The read runs under a "hypergraph.Read" span.
func roundTrip(sc span.Scope, g *hypergraph.Graph) (*hypergraph.Graph, []byte, error) {
	var buf bytes.Buffer
	if err := hypergraph.Write(&buf, g); err != nil {
		return nil, nil, fmt.Errorf("encoding %s: %w", g.Name, err)
	}
	text := buf.Bytes()
	r := sc.Start("hypergraph.Read", -1)
	out, err := hypergraph.Read(bytes.NewReader(text))
	r.End()
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s back: %w", g.Name, err)
	}
	return out, text, nil
}

// opOutcome is what one op produced, for the repeat gate.
type opOutcome struct {
	cost, iob []float64
	topo      []int
}

func (a opOutcome) equal(b opOutcome) bool {
	if len(a.cost) != len(b.cost) {
		return false
	}
	for i := range a.cost {
		if a.cost[i] != b.cost[i] || a.iob[i] != b.iob[i] || a.topo[i] != b.topo[i] {
			return false
		}
	}
	return true
}

// runCLI measures one CLI workload.
func runCLI(w cliWorkload, cfg config) (*result, error) {
	tr := newTracer("kbench")
	res := newResult()
	var board *topology.Board
	if w.board != "" {
		b, err := topology.ParseSpec(w.board)
		if err != nil {
			return nil, err
		}
		board = b
	}

	var graphs []*hypergraph.Graph
	setup := func(sc span.Scope) error {
		gs, err := w.inputs(cfg.quick)
		if err != nil {
			return err
		}
		var read []*hypergraph.Graph
		for _, g := range gs {
			rg, _, err := roundTrip(sc, g)
			if err != nil {
				return err
			}
			read = append(read, rg)
		}
		graphs = read
		return nil
	}
	for rep := 0; rep < setupsBefore; rep++ {
		if err := res.timeSetup(tr, cfg.trace, rep, setup); err != nil {
			return nil, err
		}
	}

	var first *opOutcome
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced ops, so the
		// tracing overhead is measured under the same conditions.
		traced := cfg.trace && i%2 == 1
		// Another op (or untraced-traced pair) starts only while it is
		// expected to end less than half its length past the run's
		// time, so a slow machine makes fewer ops, not a longer run.
		if elapsed := time.Since(start); i >= cfg.minOps() && !traced &&
			elapsed+elapsed*time.Duration(cfg.minOps())/time.Duration(2*i) >= cfg.seconds {
			break
		}
		out, err := cliOp(w, cfg, tr, board, graphs, i, traced, res)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		if first == nil {
			first = &out
		} else if !out.equal(*first) {
			res.fail(fmt.Errorf("op %d: cost, IOB utilization or topo cost differ from the first op under the same seed", i))
		}
	}
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	res.gcCycles = float64(gcAfter.NumGC - gcBefore.NumGC)
	for rep := setupsBefore; rep < setupReps; rep++ {
		if err := res.timeSetup(tr, cfg.trace, rep, setup); err != nil {
			return nil, err
		}
	}
	// Quality is summed over the circuits and averaged over the seeds.
	if first != nil {
		for i := range first.cost {
			res.deviceCost += first.cost[i] / float64(w.seeds)
			res.iob += first.iob[i] / float64(len(first.iob))
			res.topoCost += float64(first.topo[i]) / float64(w.seeds)
		}
	}
	res.ops = res.attempted
	res.finishCLI()
	return res, nil
}

// cliOp runs every circuit under each of the op's search seeds and
// checks each result.
func cliOp(w cliWorkload, cfg config, tr *tracer, board *topology.Board, graphs []*hypergraph.Graph, i int, traced bool, res *result) (opOutcome, error) {
	root := tr.scope(traced, "op", int64(i))
	sc := root.Scope()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var results []core.Result
	var inputs []*hypergraph.Graph
	for _, g := range graphs {
		for j := 0; j < w.seeds; j++ {
			opts := w.opts
			opts.Seed = cfg.seed*int64(w.seeds) + int64(j)
			opts.Board = board
			call := sc.Start("core.Partition", -1)
			opts.Spans = call.Scope()
			r, err := core.Partition(g, opts)
			call.End()
			if err != nil {
				root.End()
				return opOutcome{}, fmt.Errorf("%s seed %d: %w", g.Name, opts.Seed, err)
			}
			results = append(results, r)
			inputs = append(inputs, g)
		}
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	var out opOutcome
	var gateErr error
	for j, r := range results {
		v := sc.Start("Result.Verify", -1)
		err := r.Verify(inputs[j])
		v.End()
		if err != nil && gateErr == nil {
			gateErr = fmt.Errorf("%s: verify: %w", inputs[j].Name, err)
		}
		if board != nil {
			parts := make([]*hypergraph.Graph, len(r.Parts))
			for k := range r.Parts {
				parts[k] = r.Parts[k].Graph
			}
			v := sc.Start("verify.Routing", -1)
			err := verify.Routing(board, parts)
			v.End()
			if err != nil && gateErr == nil {
				gateErr = fmt.Errorf("%s: routing: %w", inputs[j].Name, err)
			}
		}
		out.cost = append(out.cost, r.Summary.DeviceCost())
		out.iob = append(out.iob, r.Summary.AvgIOBUtil())
		out.topo = append(out.topo, r.Summary.TopoCost)
		res.attempts += r.Feasible + r.Failed
		res.feasible += r.Feasible
	}
	root.End()
	if gateErr != nil {
		return out, gateErr
	}
	s := opSample{wall: wall, cpu: cpu, allocB: ms1.TotalAlloc - ms0.TotalAlloc}
	if traced {
		res.traced = append(res.traced, s)
		if err := tr.fold(root, res.agg, "kbench"); err != nil {
			return out, err
		}
	} else {
		res.plain = append(res.plain, s)
	}
	return out, nil
}
