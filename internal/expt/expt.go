// Package expt reproduces the paper's evaluation: Tables I–VII and
// Figure 3 of Kužnar et al. (DAC'94). Each driver returns structured
// results plus a rendered plain-text table so the cmd/benchtables
// binary and the repository benchmarks share one implementation.
package expt

import (
	"context"
	"fmt"
	"runtime"

	"fpgapart/internal/bench"
	"fpgapart/internal/library"
	"fpgapart/internal/report"
	"fpgapart/internal/search"
)

// Config controls experiment scale. The zero value reproduces the
// paper's full setup on the complete benchmark suite (bench.Suite) and
// the XC3000 library (Table I).
type Config struct {
	// Scale divides every circuit's size by this factor (0/1 = full
	// size); used by `go test -bench` for fast, shape-preserving runs.
	Scale int
	// Runs is the number of bipartitioning runs per circuit in the
	// min-cut experiment (paper: 20).
	Runs int
	// Solutions is the number of feasible k-way solutions generated per
	// run (paper: 50).
	Solutions int
	// Workers bounds experiment parallelism (default: GOMAXPROCS).
	Workers int
	Seed    int64
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 20
	}
	if c.Solutions == 0 {
		c.Solutions = 50
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// circuits returns the benchmark suite at the configured scale.
func (c Config) circuits() []bench.Circuit {
	suite := bench.Suite()
	if c.Scale > 1 {
		for i, ct := range suite {
			suite[i] = ct.Small(c.Scale)
		}
	}
	return suite
}

// forEachCircuit runs fn over the circuits on the shared search pool
// with bounded parallelism, collecting results in input order; the
// first failing circuit (by input order) aborts the run.
func forEachCircuit[T any](cfg Config, fn func(bench.Circuit) (T, error)) ([]T, error) {
	circuits := cfg.circuits()
	out := make([]T, len(circuits))
	var failed error
	_, err := search.Run(context.Background(), search.Options{
		Attempts: len(circuits),
		Workers:  cfg.Workers,
	}, func() search.AttemptFunc[T] {
		return func(_ context.Context, i int, _ int64) (T, error) {
			return fn(circuits[i])
		}
	}, func(i int, v T, err error) bool {
		if err != nil {
			failed = fmt.Errorf("expt: circuit %s: %w", circuits[i].Name, err)
			return true
		}
		out[i] = v
		return false
	})
	if err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, failed
	}
	return out, nil
}

// TableI renders the device library (paper Table I).
func TableI(lib library.Library) *report.Table {
	t := report.NewTable("TABLE I — FPGA device library (Xilinx XC3000 subset)",
		"Device", "c_i (CLB)", "t_i (IOB)", "d_i (N$)", "l_i", "u_i", "d_i/c_i")
	for _, d := range lib.Devices {
		t.Row(d.Name, d.CLBs, d.IOBs, fmt.Sprintf("%.0f", d.Price),
			d.LowUtil, d.HighUtil, d.CLBCost())
	}
	t.Note("prices are calibrated substitutes (source column illegible); see DESIGN.md §3")
	return t
}

// CircuitChar is one row of Table II.
type CircuitChar struct {
	Name                        string
	CLBs, IOBs, DFF, Nets, Pins int
}

// TableII builds the benchmark characteristics table from the
// generated circuits (paper Table II).
func TableII(cfg Config) ([]CircuitChar, *report.Table, error) {
	cfg = cfg.withDefaults()
	rows, err := forEachCircuit(cfg, func(ct bench.Circuit) (CircuitChar, error) {
		g, err := ct.Build()
		if err != nil {
			return CircuitChar{}, err
		}
		return CircuitChar{
			Name: ct.Name, CLBs: g.TotalArea(), IOBs: g.NumTerminals(),
			DFF: g.NumDFF(), Nets: g.NumNets(), Pins: g.NumPins(),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("TABLE II — Benchmark circuit characteristics (synthetic substitutes)",
		"Circuit", "#CLBs", "#IOBs", "#DFF", "#NETs", "#PINs")
	for _, r := range rows {
		t.Row(r.Name, r.CLBs, r.IOBs, r.DFF, r.Nets, r.Pins)
	}
	return rows, t, nil
}

// PsiBins is the Figure 3 distribution for one circuit, as percentages
// of all cells.
type PsiBins struct {
	Name    string
	Single  float64 // "0": single-output cells
	MultiZ  float64 // "0*": multi-output, ψ = 0
	Psi     [4]float64
	PsiMore float64 // ψ > 4
}

// Figure3 computes the cell distribution over replication potential
// (paper Fig. 3) for every circuit.
func Figure3(cfg Config) ([]PsiBins, *report.Table, *report.Bars, error) {
	cfg = cfg.withDefaults()
	rows, err := forEachCircuit(cfg, func(ct bench.Circuit) (PsiBins, error) {
		g, err := ct.Build()
		if err != nil {
			return PsiBins{}, err
		}
		d := g.Distribution()
		pct := func(n int) float64 { return 100 * float64(n) / float64(d.Total) }
		b := PsiBins{Name: ct.Name, Single: pct(d.SingleOutput), MultiZ: pct(d.MultiZero)}
		for psi, n := range d.ByPsi {
			switch {
			case psi >= 1 && psi <= 4:
				b.Psi[psi-1] += pct(n)
			case psi > 4:
				b.PsiMore += pct(n)
			}
		}
		return b, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	t := report.NewTable("FIGURE 3 — Cell distribution vs replication potential ψ (% of cells)",
		"Circuit", "ψ=0", "ψ=0*", "ψ=1", "ψ=2", "ψ=3", "ψ=4", "ψ>4")
	var avg PsiBins
	for _, r := range rows {
		t.Row(r.Name, r.Single, r.MultiZ, r.Psi[0], r.Psi[1], r.Psi[2], r.Psi[3], r.PsiMore)
		avg.Single += r.Single / float64(len(rows))
		avg.MultiZ += r.MultiZ / float64(len(rows))
		for i := range avg.Psi {
			avg.Psi[i] += r.Psi[i] / float64(len(rows))
		}
		avg.PsiMore += r.PsiMore / float64(len(rows))
	}
	t.Note("ψ=0 are single-output cells; ψ=0* are multi-output cells with ψ=0 (Fig. 3 legend)")
	bars := report.NewBars("Average distribution across circuits")
	bars.Bar("ψ=0 ", avg.Single, fmt.Sprintf("%.1f%%", avg.Single))
	bars.Bar("ψ=0*", avg.MultiZ, fmt.Sprintf("%.1f%%", avg.MultiZ))
	for i, v := range avg.Psi {
		bars.Bar(fmt.Sprintf("ψ=%d ", i+1), v, fmt.Sprintf("%.1f%%", v))
	}
	bars.Bar("ψ>4 ", avg.PsiMore, fmt.Sprintf("%.1f%%", avg.PsiMore))
	return rows, t, bars, nil
}
