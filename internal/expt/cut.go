package expt

import (
	"fmt"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/fm"
	"fpgapart/internal/report"
)

// CutRow is one circuit's row of Table III: best and average cut over
// the runs for plain F-M min-cut and F-M min-cut with functional
// replication, plus the CPU overhead of replication.
type CutRow struct {
	Name            string
	Runs            int
	FMBest, FRBest  int
	FMAvg, FRAvg    float64
	BestRed, AvgRed float64 // percent reductions
	FMCPU, FRCPU    time.Duration
	ReplicatedCells float64 // average per run
}

// TableIII reproduces the first experiment: Runs bipartitions per
// circuit into two equal-sized blocks with terminal constraints
// relaxed, threshold T = 0 (maximum replication), comparing plain F-M
// against F-M with functional replication. Each run is a pair of
// core.MinCutBipartition calls on one seed, so both algorithms start
// from the same initial partition under the same area bounds.
func TableIII(cfg Config) ([]CutRow, *report.Table, error) {
	cfg = cfg.withDefaults()
	rows, err := forEachCircuit(cfg, func(ct bench.Circuit) (CutRow, error) {
		g, err := ct.Build()
		if err != nil {
			return CutRow{}, err
		}
		row := CutRow{Name: ct.Name, Runs: cfg.Runs}
		var frCells int
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)*7919 + int64(ct.Params.Seed)

			start := time.Now()
			_, resFM, err := core.MinCutBipartition(g, core.BipartitionOptions{
				Threshold: fm.NoReplication, Starts: 1, Seed: seed,
			})
			if err != nil {
				return CutRow{}, err
			}
			row.FMCPU += time.Since(start)

			start = time.Now()
			stFR, resFR, err := core.MinCutBipartition(g, core.BipartitionOptions{
				Threshold: 0, Starts: 1, Seed: seed,
			})
			if err != nil {
				return CutRow{}, err
			}
			row.FRCPU += time.Since(start)

			if run == 0 || resFM.Cut < row.FMBest {
				row.FMBest = resFM.Cut
			}
			if run == 0 || resFR.Cut < row.FRBest {
				row.FRBest = resFR.Cut
			}
			row.FMAvg += float64(resFM.Cut) / float64(cfg.Runs)
			row.FRAvg += float64(resFR.Cut) / float64(cfg.Runs)
			frCells += stFR.ReplicatedCount()
		}
		row.ReplicatedCells = float64(frCells) / float64(cfg.Runs)
		row.BestRed = reduction(float64(row.FMBest), float64(row.FRBest))
		row.AvgRed = reduction(row.FMAvg, row.FRAvg)
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := report.NewTable(
		fmt.Sprintf("TABLE III — Best and average cut over %d runs (T=0, terminals relaxed)", cfg.Runs),
		"Circuit", "FM best", "FM avg", "FM+FR best", "Best red.", "FM+FR avg", "Avg red.")
	var bestRedAvg, avgRedAvg, cpuOverhead float64
	for _, r := range rows {
		t.Row(r.Name, r.FMBest, r.FMAvg, r.FRBest,
			fmt.Sprintf("%.1f%%", r.BestRed), r.FRAvg, fmt.Sprintf("%.1f%%", r.AvgRed))
		bestRedAvg += r.BestRed / float64(len(rows))
		avgRedAvg += r.AvgRed / float64(len(rows))
		if r.FMCPU > 0 {
			cpuOverhead += (float64(r.FRCPU)/float64(r.FMCPU) - 1) * 100 / float64(len(rows))
		}
	}
	t.Row("Avg.", "", "", "", fmt.Sprintf("%.1f%%", bestRedAvg), "", fmt.Sprintf("%.1f%%", avgRedAvg))
	t.Note("average CPU overhead of functional replication: %.0f%% (paper: 34%%)", cpuOverhead)
	return rows, t, nil
}

// reduction returns the percent reduction from base to improved.
func reduction(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - improved) / base
}
