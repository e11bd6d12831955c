// Package fpgapart's benchmarks regenerate every table and figure of
// the paper's evaluation at reduced scale (the shape-preserving 1/8
// circuits), plus engine micro-benchmarks and ablations. The full-size
// tables come from `go run ./cmd/benchtables`; each benchmark here
// prints the same rows via the shared drivers in internal/expt.
package fpgapart

import (
	"fmt"
	"math/rand"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/expt"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/multilevel"
	"fpgapart/internal/replication"
)

// benchCfg is the reduced-scale configuration all table benchmarks
// share: 1/8-size circuits, few runs, deterministic seed.
func benchCfg() expt.Config {
	return expt.Config{Scale: 8, Runs: 3, Solutions: 3, Seed: 1}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := expt.TableI(library.XC3000()).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.TableII(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := expt.Figure3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the min-cut experiment (FM vs FM with
// functional replication) and reports the average cut reduction as a
// custom metric.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := expt.TableIII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		red := 0.0
		for _, r := range rows {
			red += r.AvgRed / float64(len(rows))
		}
		b.ReportMetric(red, "avg-cut-red-%")
	}
}

func benchKwayRows(b *testing.B) []expt.KwayRow {
	b.Helper()
	rows, err := expt.RunKway(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		if s := expt.TableIV(benchCfg(), rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		if s := expt.TableV(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		// Report the average T=1 cost reduction against the baseline.
		red, n := 0.0, 0
		for _, r := range rows {
			if r.Baseline.Err == nil && r.ByT[1].Err == nil && r.Baseline.Cost > 0 {
				red += 100 * (r.Baseline.Cost - r.ByT[1].Cost) / r.Baseline.Cost
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(red/float64(n), "avg-cost-red-%")
		}
		if s := expt.TableVI(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		iob, n := 0.0, 0
		for _, r := range rows {
			if c := r.ByT[1]; c.Err == nil {
				iob += c.IOBUtil
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(iob/float64(n), "avg-iob-util-%")
		}
		if s := expt.TableVII(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- engine micro-benchmarks and ablations ---------------------------

func benchGraph(b *testing.B, name string, scale int) *hypergraph.Graph {
	b.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	g, err := c.Small(scale).Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFMPass measures raw FM bipartitioning throughput, plain,
// with functional replication at T = 1, and at T = 1 under a seeded net
// weight table (the board objective's kernel).
func BenchmarkFMPass(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	r := rand.New(rand.NewSource(1))
	weights := make([]replication.NetWeights, g.NumNets())
	for i := range weights {
		a0, a1 := int32(r.Intn(4)), int32(r.Intn(4))
		weights[i] = replication.NetWeights{Alone: [2]int32{a0, a1}, Both: a0 + a1 + int32(r.Intn(3))}
	}
	for _, tc := range []struct {
		name      string
		threshold int
		weights   []replication.NetWeights
	}{{"plain", fm.NoReplication, nil}, {"T=1", 1, nil}, {"weighted", 1, weights}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := replication.NewState(g, fm.RandomAssign(g, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if tc.weights != nil {
					if err := st.SetNetWeights(tc.weights); err != nil {
						b.Fatal(err)
					}
				}
				res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: tc.threshold, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Moves), "moves/op")
			}
		})
	}
}

// BenchmarkReplicationGain measures the replicate-gain evaluation of
// the FM pass set-up and neighbourhood refresh: all splits of one
// multi-output cell per op, through one SplitGains walk or through one
// Gain call per split.
func BenchmarkReplicationGain(b *testing.B) {
	g := benchGraph(b, "s9234", 2)
	st, err := replication.NewState(g, fm.RandomAssign(g, 1))
	if err != nil {
		b.Fatal(err)
	}
	st.PrepareSplitGains()
	var cells []hypergraph.CellID
	for ci := 0; ci < g.NumCells(); ci++ {
		if c := hypergraph.CellID(ci); len(st.Splits(c)) > 0 {
			cells = append(cells, c)
		}
	}
	b.Run("split-gains", func(b *testing.B) {
		var gains [replication.MaxSplits]int
		for i := 0; i < b.N; i++ {
			st.SplitGains(cells[i%len(cells)], gains[:])
		}
	})
	b.Run("gain-per-split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cells[i%len(cells)]
			for _, carry := range st.Splits(c) {
				if _, err := st.Gain(replication.Move{Cell: c, Kind: replication.Replicate, Carry: carry}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationInitialPartition compares random, cluster-grown and
// multilevel V-cycle initial assignments: the design choice behind the
// k-way carve (DESIGN.md §5).
func BenchmarkAblationInitialPartition(b *testing.B) {
	g := benchGraph(b, "s15850", 4)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	run := func(b *testing.B, assignFor func(i int) []replication.Block) {
		cuts := 0
		for i := 0; i < b.N; i++ {
			st, err := replication.NewState(g, assignFor(i))
			if err != nil {
				b.Fatal(err)
			}
			res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			cuts += res.Cut
		}
		b.ReportMetric(float64(cuts)/float64(b.N), "final-cut")
	}
	b.Run("random", func(b *testing.B) {
		run(b, func(i int) []replication.Block { return fm.RandomAssign(g, int64(i)) })
	})
	b.Run("cluster", func(b *testing.B) {
		run(b, func(i int) []replication.Block { return fm.ClusterAssign(g, int64(i), g.TotalArea()/2) })
	})
	b.Run("multilevel", func(b *testing.B) {
		run(b, func(i int) []replication.Block {
			res, err := multilevel.Run(g, multilevel.Config{
				Config:     fm.Config{MinArea: minA, MaxArea: maxA, Seed: int64(i)},
				TargetArea: g.TotalArea() / 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Assign
		})
	})
}

// BenchmarkAblationThreshold sweeps the replication threshold on one
// circuit, reporting the final cut per setting (Table IV's knob).
func BenchmarkAblationThreshold(b *testing.B) {
	g := benchGraph(b, "s9234", 2)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	maxA = [2]int{maxA[0] * 11 / 10, maxA[1] * 11 / 10}
	for _, T := range []int{fm.NoReplication, 0, 1, 3} {
		name := fmt.Sprintf("T=%d", T)
		if T == fm.NoReplication {
			name = "T=off"
		}
		b.Run(name, func(b *testing.B) {
			cuts := 0
			for i := 0; i < b.N; i++ {
				st, err := replication.NewState(g, fm.RandomAssign(g, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: T, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				cuts += res.Cut
			}
			b.ReportMetric(float64(cuts)/float64(b.N), "final-cut")
		})
	}
}

// BenchmarkKwayPartition measures one full cost-driven k-way search.
func BenchmarkKwayPartition(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Partition(g, core.Options{Solutions: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.DeviceCost(), "cost")
	}
}

// BenchmarkAblationPairRefine measures the pairwise k-way refinement
// sweep's effect on Eq. 2 (average IOB utilization).
func BenchmarkAblationPairRefine(b *testing.B) {
	g := benchGraph(b, "s38584", 3)
	for _, refine := range []bool{false, true} {
		name := "search-only"
		if refine {
			name = "search+refine"
		}
		b.Run(name, func(b *testing.B) {
			util := 0.0
			for i := 0; i < b.N; i++ {
				opts := core.Options{Solutions: 3, Seed: int64(i)}
				res, err := core.Partition(g, opts)
				if err == nil && refine {
					_, err = kway.Refine(g, &res, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
				util += 100 * res.Summary.AvgIOBUtil()
			}
			b.ReportMetric(util/float64(b.N), "avg-iob-util-%")
		})
	}
}

// BenchmarkKwayVerifyOverhead measures the cost of in-loop
// verification (kway.Options.Verify / kpart -verify): every accepted
// carve is re-checked with replication.State invariants plus
// verify.Split, and every assembled solution with verify.Partition.
// The checks are linear in pins, so the overhead stays small against
// the FM search itself — expected below ~10% at this reduced scale.
func BenchmarkKwayVerifyOverhead(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	for _, on := range []bool{false, true} {
		name := "verify-off"
		if on {
			name = "verify-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Partition(g, core.Options{Solutions: 3, Seed: int64(i), Verify: on}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
