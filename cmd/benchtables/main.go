// Command benchtables regenerates the paper's evaluation: Tables I–VII
// and Figure 3 of "Multi-way Netlist Partitioning into Heterogeneous
// FPGAs and Minimization of Total Device Cost and Interconnect"
// (Kužnar, Brglez, Zajc — DAC 1994).
//
// Usage:
//
//	benchtables                 # everything, full scale (minutes)
//	benchtables -quick          # 1/8-scale smoke run (seconds)
//	benchtables -only 3,7       # just Table III and Table VII
//	benchtables -runs 20 -solutions 50
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fpgapart/internal/expt"
	"fpgapart/internal/library"
	"fpgapart/internal/prof"
)

func main() {
	quick := flag.Bool("quick", false, "1/8-scale circuits, 5 runs, 5 solutions")
	runs := flag.Int("runs", 20, "bipartitioning runs per circuit (Table III)")
	solutions := flag.Int("solutions", 50, "feasible k-way solutions per run (Tables IV-VII)")
	scale := flag.Int("scale", 0, "divide circuit sizes by this factor (0 = full)")
	workers := flag.Int("workers", 0, "bound experiment parallelism (0 = GOMAXPROCS); results are identical for any value")
	seed := flag.Int64("seed", 42, "experiment seed")
	only := flag.String("only", "", "comma-separated subset: 1,2,f3,3,4,5,6,7,h (h = homogeneous appendix)")
	csvDir := flag.String("csv", "", "also write raw experiment data as CSV files into this directory")
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	cfg := expt.Config{Runs: *runs, Solutions: *solutions, Scale: *scale, Workers: *workers, Seed: *seed}
	if *quick {
		cfg.Scale, cfg.Runs, cfg.Solutions = 8, 5, 5
	}
	want := map[string]bool{}
	if *only == "" {
		for _, k := range []string{"1", "2", "f3", "3", "4", "5", "6", "7", "h"} {
			want[k] = true
		}
	} else {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	err = run(cfg, want, *csvDir)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(cfg expt.Config, want map[string]bool, csvDir string) error {
	start := time.Now()
	writeCSV := func(name string, fn func(w *os.File) error) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if want["1"] {
		expt.TableI(library.XC3000()).Render(os.Stdout)
		fmt.Println()
	}
	if want["2"] {
		rows, t, err := expt.TableII(cfg)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		fmt.Println()
		if err := writeCSV("table2.csv", func(w *os.File) error { return expt.TableIICSV(w, rows) }); err != nil {
			return err
		}
	}
	if want["f3"] {
		rows, t, bars, err := expt.Figure3(cfg)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		bars.Render(os.Stdout)
		fmt.Println()
		if err := writeCSV("figure3.csv", func(w *os.File) error { return expt.Figure3CSV(w, rows) }); err != nil {
			return err
		}
	}
	if want["3"] {
		rows, t, err := expt.TableIII(cfg)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		fmt.Println()
		if err := writeCSV("table3.csv", func(w *os.File) error { return expt.TableIIICSV(w, rows) }); err != nil {
			return err
		}
	}
	if want["4"] || want["5"] || want["6"] || want["7"] {
		rows, err := expt.RunKway(cfg)
		if err != nil {
			return err
		}
		if err := writeCSV("kway.csv", func(w *os.File) error { return expt.KwayCSV(w, rows) }); err != nil {
			return err
		}
		if want["4"] {
			expt.TableIV(cfg, rows).Render(os.Stdout)
			fmt.Println()
		}
		if want["5"] {
			expt.TableV(rows).Render(os.Stdout)
			fmt.Println()
		}
		if want["6"] {
			expt.TableVI(rows).Render(os.Stdout)
			fmt.Println()
		}
		if want["7"] {
			expt.TableVII(rows).Render(os.Stdout)
			fmt.Println()
		}
	}
	if want["h"] {
		_, t, err := expt.TableHomogeneous(cfg)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
	return nil
}
