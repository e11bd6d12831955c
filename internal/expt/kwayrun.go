package expt

import (
	"fmt"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/fm"
	"fpgapart/internal/kway"
	"fpgapart/internal/report"
)

// KwayCell is the outcome of one k-way partitioning run.
type KwayCell struct {
	K       int
	Cost    float64
	CLBUtil float64 // Table V metric
	IOBUtil float64 // Table VII metric (Eq. 2)
	ReplPct float64 // Table IV metric
	CPU     time.Duration
	Devices map[string]int
	Err     error
}

// KwayRow holds, for one circuit, the no-replication baseline (the
// reimplementation of [3]) and the replication runs per threshold T.
type KwayRow struct {
	Name     string
	Cells    int
	Baseline KwayCell
	ByT      map[int]KwayCell
}

// RunKway executes the second experiment: cost-driven k-way
// partitioning into the XC3000 library with functional replication at
// the paper's thresholds T ∈ {0,1,2,3}, against the DAC'93-style
// baseline. This single pass feeds Tables IV–VII.
func RunKway(cfg Config) ([]KwayRow, error) {
	cfg = cfg.withDefaults()
	return forEachCircuit(cfg, func(ct bench.Circuit) (KwayRow, error) {
		g, err := ct.Build()
		if err != nil {
			return KwayRow{}, err
		}
		row := KwayRow{Name: ct.Name, Cells: g.NumCells(), ByT: make(map[int]KwayCell)}
		run := func(threshold int) KwayCell {
			start := time.Now()
			res, err := kway.Partition(g, kway.Options{
				Threshold: &threshold,
				Solutions: cfg.Solutions,
				Seed:      cfg.Seed + int64(ct.Params.Seed),
			})
			cell := KwayCell{CPU: time.Since(start), Err: err}
			if err != nil {
				return cell
			}
			cell.K = res.Summary.K()
			cell.Cost = res.Summary.DeviceCost()
			cell.CLBUtil = 100 * res.Summary.AvgCLBUtil()
			cell.IOBUtil = 100 * res.Summary.AvgIOBUtil()
			cell.ReplPct = res.Summary.ReplicatedPct(res.SourceCells)
			cell.Devices = res.Summary.DeviceCounts()
			return cell
		}
		row.Baseline = run(fm.NoReplication)
		for _, T := range []int{0, 1, 2, 3} {
			row.ByT[T] = run(T)
		}
		return row, nil
	})
}

func cellStr(c KwayCell, f func(KwayCell) string) string {
	if c.Err != nil {
		return "fail"
	}
	return f(c)
}

// TableIV renders the percentage of replicated cells per threshold and
// the CPU cost (paper Table IV).
func TableIV(cfg Config, rows []KwayRow) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable(
		fmt.Sprintf("TABLE IV — Replicated cells and CPU cost (%d feasible solutions/run)", cfg.Solutions),
		"Circuit", "T=0 (%)", "T=1 (%)", "T=2 (%)", "T=3 (%)", "CPU T=1 (s)", "CPU base (s)")
	avg := make(map[int]float64)
	for _, r := range rows {
		vals := make([]interface{}, 0, 7)
		vals = append(vals, r.Name)
		for _, T := range []int{0, 1, 2, 3} {
			c := r.ByT[T]
			vals = append(vals, cellStr(c, func(c KwayCell) string { return fmt.Sprintf("%.1f", c.ReplPct) }))
			if c.Err == nil {
				avg[T] += c.ReplPct / float64(len(rows))
			}
		}
		vals = append(vals,
			fmt.Sprintf("%.2f", r.ByT[1].CPU.Seconds()),
			fmt.Sprintf("%.2f", r.Baseline.CPU.Seconds()))
		t.Row(vals...)
	}
	t.Row("Avg.", fmt.Sprintf("%.1f", avg[0]), fmt.Sprintf("%.1f", avg[1]),
		fmt.Sprintf("%.1f", avg[2]), fmt.Sprintf("%.1f", avg[3]), "", "")
	t.Note("T=0 includes multi-output cells with ψ=0 (paper Table IV note)")
	return t
}

// TableV renders average CLB utilization per threshold against the
// baseline (paper Table V).
func TableV(rows []KwayRow) *report.Table {
	t := report.NewTable("TABLE V — Average CLB utilization after partitioning (%)",
		"Circuit", "In [3]", "T=1", "Incr.", "T=2", "Incr.", "T=3", "Incr.")
	var aBase, aT [4]float64
	n := 0.0
	for _, r := range rows {
		if r.Baseline.Err != nil {
			t.Row(r.Name, "fail")
			continue
		}
		base := r.Baseline.CLBUtil
		vals := []interface{}{r.Name, fmt.Sprintf("%.0f", base)}
		for _, T := range []int{1, 2, 3} {
			c := r.ByT[T]
			if c.Err != nil {
				vals = append(vals, "fail", "")
				continue
			}
			vals = append(vals, fmt.Sprintf("%.0f", c.CLBUtil), fmt.Sprintf("%+.0f", c.CLBUtil-base))
			aT[T] += c.CLBUtil
		}
		t.Row(vals...)
		aBase[0] += base
		n++
	}
	if n > 0 {
		t.Row("Avg.", fmt.Sprintf("%.0f", aBase[0]/n),
			fmt.Sprintf("%.0f", aT[1]/n), "", fmt.Sprintf("%.0f", aT[2]/n), "",
			fmt.Sprintf("%.0f", aT[3]/n), "")
	}
	return t
}

// TableVI renders the total device cost (Eq. 1) per threshold against
// the baseline (paper Table VI).
func TableVI(rows []KwayRow) *report.Table {
	t := report.NewTable("TABLE VI — Total design cost after partitioning (Eq. 1)",
		"Circuit", "In [3]", "T=1", "Red.", "T=2", "Red.", "T=3", "Red.")
	var redAvg [4]float64
	var redN [4]float64
	for _, r := range rows {
		if r.Baseline.Err != nil {
			t.Row(r.Name, "fail")
			continue
		}
		base := r.Baseline.Cost
		vals := []interface{}{r.Name, fmt.Sprintf("%.0f", base)}
		for _, T := range []int{1, 2, 3} {
			c := r.ByT[T]
			if c.Err != nil {
				vals = append(vals, "fail", "")
				continue
			}
			red := reduction(base, c.Cost)
			vals = append(vals, fmt.Sprintf("%.0f", c.Cost), fmt.Sprintf("%.1f%%", red))
			redAvg[T] += red
			redN[T]++
		}
		t.Row(vals...)
	}
	row := []interface{}{"Avg.", ""}
	for _, T := range []int{1, 2, 3} {
		if redN[T] > 0 {
			row = append(row, "", fmt.Sprintf("%.1f%%", redAvg[T]/redN[T]))
		} else {
			row = append(row, "", "")
		}
	}
	t.Row(row...)
	return t
}

// TableVII renders average IOB utilization (Eq. 2) per threshold
// against the baseline (paper Table VII).
func TableVII(rows []KwayRow) *report.Table {
	t := report.NewTable("TABLE VII — Average IOB utilization after partitioning (Eq. 2, %)",
		"Circuit", "In [3]", "T=1", "Red.", "T=2", "Red.", "T=3", "Red.")
	var base, tSum [4]float64
	n := 0.0
	for _, r := range rows {
		if r.Baseline.Err != nil {
			t.Row(r.Name, "fail")
			continue
		}
		b := r.Baseline.IOBUtil
		vals := []interface{}{r.Name, fmt.Sprintf("%.0f", b)}
		for _, T := range []int{1, 2, 3} {
			c := r.ByT[T]
			if c.Err != nil {
				vals = append(vals, "fail", "")
				continue
			}
			vals = append(vals, fmt.Sprintf("%.0f", c.IOBUtil), fmt.Sprintf("%.1f%%", reduction(b, c.IOBUtil)))
			tSum[T] += c.IOBUtil
		}
		t.Row(vals...)
		base[0] += b
		n++
	}
	if n > 0 {
		t.Row("Avg.", fmt.Sprintf("%.0f", base[0]/n),
			fmt.Sprintf("%.0f", tSum[1]/n), "", fmt.Sprintf("%.0f", tSum[2]/n), "",
			fmt.Sprintf("%.0f", tSum[3]/n), "")
	}
	return t
}
