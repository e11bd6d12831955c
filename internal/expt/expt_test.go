package expt

import (
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/library"
)

// quickCfg shrinks the experiments so the whole package tests in
// seconds while preserving the comparative structure.
func quickCfg() Config {
	return Config{
		Scale:     8,
		Runs:      3,
		Solutions: 3,
		Seed:      1,
	}
}

func TestTableI(t *testing.T) {
	out := TableI(library.XC3000()).String()
	for _, want := range []string{"XC3020", "XC3090", "d_i/c_i"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableII(t *testing.T) {
	rows, tab, err := TableII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if r.CLBs <= 0 || r.IOBs <= 0 || r.Nets <= 0 || r.Pins <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.Pins <= r.Nets {
			t.Fatalf("%s: pins (%d) should exceed nets (%d)", r.Name, r.Pins, r.Nets)
		}
	}
	if !strings.Contains(tab.String(), "c3540") {
		t.Fatal("table missing circuit name")
	}
}

func TestFigure3(t *testing.T) {
	rows, tab, bars, err := Figure3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.Single + r.MultiZ + r.PsiMore
		for _, p := range r.Psi {
			sum += p
		}
		if sum < 99.0 || sum > 101.0 {
			t.Fatalf("%s: bins sum to %.2f%%, want 100%%", r.Name, sum)
		}
		// Fig. 3 shape: single-output a minority, bulk at ψ ≥ 1.
		if r.Single > 40 {
			t.Fatalf("%s: single-output %.1f%% too high", r.Name, r.Single)
		}
	}
	if !strings.Contains(tab.String(), "ψ=0*") || !strings.Contains(bars.String(), "#") {
		t.Fatal("figure rendering incomplete")
	}
}

func TestTableIII(t *testing.T) {
	rows, tab, err := TableIII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var betterOrEqual, strictly int
	for _, r := range rows {
		// Per-run pairing + monotone replication phase guarantee this.
		if r.FRBest > r.FMBest {
			t.Errorf("%s: FR best %d worse than FM best %d", r.Name, r.FRBest, r.FMBest)
		}
		if r.FRAvg <= r.FMAvg+1e-9 {
			betterOrEqual++
		}
		if r.FRAvg < r.FMAvg-1e-9 {
			strictly++
		}
	}
	if betterOrEqual != len(rows) {
		t.Errorf("FR average worse than FM on %d circuits", len(rows)-betterOrEqual)
	}
	if strictly == 0 {
		t.Error("replication never improved any average cut")
	}
	if !strings.Contains(tab.String(), "Avg.") {
		t.Fatal("missing average row")
	}
}

func TestRunKwayAndTables(t *testing.T) {
	cfg := quickCfg()
	rows, err := RunKway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	okBase := 0
	for _, r := range rows {
		if r.Baseline.Err == nil {
			okBase++
			if r.Baseline.K < 1 || r.Baseline.Cost <= 0 {
				t.Fatalf("%s: degenerate baseline %+v", r.Name, r.Baseline)
			}
		}
		for T, c := range r.ByT {
			if c.Err == nil && c.ReplPct < 0 {
				t.Fatalf("%s T=%d: negative replication", r.Name, T)
			}
		}
	}
	if okBase < 7 {
		t.Fatalf("baseline failed on %d/9 circuits", 9-okBase)
	}
	for name, tab := range map[string]interface{ String() string }{
		"IV": TableIV(cfg, rows), "V": TableV(rows), "VI": TableVI(rows), "VII": TableVII(rows),
	} {
		out := tab.String()
		if !strings.Contains(out, "c3540") {
			t.Fatalf("table %s missing circuits:\n%s", name, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Runs != 20 || c.Solutions != 50 || len(c.circuits()) != 9 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Workers < 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestConfigScale(t *testing.T) {
	c := Config{Scale: 10}
	full, _ := bench.ByName("s38584")
	for _, ct := range c.circuits() {
		if ct.Name == "s38584/10" && ct.Params.Cells != full.Params.Cells/10 {
			t.Fatalf("scale wrong: %+v", ct)
		}
	}
}

func TestReduction(t *testing.T) {
	if got := reduction(100, 80); got != 20 {
		t.Fatalf("reduction = %g", got)
	}
	if got := reduction(0, 5); got != 0 {
		t.Fatalf("reduction(0,·) = %g", got)
	}
}

func TestCSVExports(t *testing.T) {
	cfg := quickCfg()
	charRows, _, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	psiRows, _, _, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cutRows, _, err := TableIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kwayRows, err := RunKway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, write func(w *strings.Builder) error, wantHeader string, wantRows int) {
		var sb strings.Builder
		if err := write(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if !strings.HasPrefix(lines[0], wantHeader) {
			t.Fatalf("%s: header %q", name, lines[0])
		}
		if len(lines)-1 != wantRows {
			t.Fatalf("%s: %d rows, want %d", name, len(lines)-1, wantRows)
		}
	}
	check("tableII", func(w *strings.Builder) error { return TableIICSV(w, charRows) }, "circuit,clbs", 9)
	check("fig3", func(w *strings.Builder) error { return Figure3CSV(w, psiRows) }, "circuit,psi0_single", 9)
	check("tableIII", func(w *strings.Builder) error { return TableIIICSV(w, cutRows) }, "circuit,runs", 9)
	check("kway", func(w *strings.Builder) error { return KwayCSV(w, kwayRows) }, "circuit,setting", 9*5)
}

func TestTableHomogeneous(t *testing.T) {
	rows, tab, err := TableHomogeneous(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.K < r.LowerBound {
			t.Fatalf("%s: k=%d below area lower bound %d", r.Name, r.K, r.LowerBound)
		}
		if r.K > r.LowerBound+3 {
			t.Fatalf("%s: k=%d far above bound %d", r.Name, r.K, r.LowerBound)
		}
	}
	if !strings.Contains(tab.String(), "APPENDIX") {
		t.Fatal("missing title")
	}
}
