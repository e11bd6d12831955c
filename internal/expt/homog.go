package expt

import (
	"fmt"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/report"
)

// HomogRow is one circuit's result for the homogeneous special case.
type HomogRow struct {
	Name       string
	CLBs       int
	K          int // devices used
	LowerBound int // ceil(CLBs / max usable CLBs per device)
	IOBUtil    float64
}

// TableHomogeneous runs the special case from the paper's
// introduction: with a single device type, minimizing Eq. (1) reduces
// to minimizing the number k of feasible subsets. Each circuit is
// partitioned onto copies of the largest XC3000 part and compared with
// the area lower bound.
func TableHomogeneous(cfg Config) ([]HomogRow, *report.Table, error) {
	cfg = cfg.withDefaults()
	dev := library.XC3000().Largest()
	dev.LowUtil = 0 // any remainder must fit somewhere
	lib, err := library.Homogeneous(dev)
	if err != nil {
		return nil, nil, err
	}
	noRepl := fm.NoReplication
	rows, err := forEachCircuit(cfg, func(ct bench.Circuit) (HomogRow, error) {
		g, err := ct.Build()
		if err != nil {
			return HomogRow{}, err
		}
		res, err := kway.Partition(g, kway.Options{
			Library:   lib,
			Threshold: &noRepl,
			Solutions: cfg.Solutions,
			Seed:      cfg.Seed + int64(ct.Params.Seed),
		})
		row := HomogRow{
			Name: ct.Name, CLBs: g.TotalArea(),
			LowerBound: (g.TotalArea() + dev.MaxCLBs() - 1) / dev.MaxCLBs(),
		}
		if err != nil {
			return row, err
		}
		row.K = res.Summary.K()
		row.IOBUtil = 100 * res.Summary.AvgIOBUtil()
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("APPENDIX — Homogeneous library (%s only): minimum device count", dev.Name),
		"Circuit", "#CLBs", "k", "Area bound", "Gap", "IOB util (%)")
	for _, r := range rows {
		t.Row(r.Name, r.CLBs, r.K, r.LowerBound, r.K-r.LowerBound, fmt.Sprintf("%.0f", r.IOBUtil))
	}
	t.Note("with one device type, Eq. (1) reduces to minimizing k (paper, introduction)")
	return rows, t, nil
}
