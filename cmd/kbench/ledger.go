package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Paths relative to the repository root, where kbench is run from.
const (
	ledgerPath    = "cmd/kbench/ledger.jsonl"
	benchmarkPath = "BENCHMARK.json"
)

// ledgerRow is one line of the append-only ledger: a whole kbench run
// with the machine it ran on. Workloads maps each workload to every
// metric it reported, untraced and traced, plus its fail_ratio.
type ledgerRow struct {
	Time       string            `json:"time"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Quick      bool              `json:"quick,omitempty"`
	Workloads  map[string][]stat `json:"workloads"`
}

func newLedgerRow(cfg config, commit string, reps []report) ledgerRow {
	if commit == "" {
		commit = vcsRevision()
	}
	row := ledgerRow{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit, Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Quick: cfg.quick,
		Workloads: make(map[string][]stat),
	}
	for _, rep := range reps {
		row.Workloads[rep.Workload] = append(row.Workloads[rep.Workload], rep.Metrics...)
		if !rep.Trace {
			ratio := float64(rep.Failed) / float64(max(rep.Attempted, 1))
			row.Workloads[rep.Workload] = append(row.Workloads[rep.Workload], single("fail_ratio", "ratio", ratio, rep.Attempted))
		}
	}
	return row
}

// vcsRevision is the commit the binary was built from, marked dirty
// when the tree had local changes ("unknown" without VCS stamping, as
// under go run).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// appendRow adds one line to the ledger; existing rows are never
// rewritten.
func appendRow(path string, row ledgerRow) error {
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRow selects a ledger row: a 1-based row number, a negative number
// counting from the end (-1 is the last row), or the last row whose
// commit starts with sel.
func findRow(path, sel string) (*ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := readRows(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n, err := strconv.Atoi(sel); err == nil {
		if n < 0 {
			n += len(rows) + 1
		}
		if n < 1 || n > len(rows) {
			return nil, fmt.Errorf("%s has %d rows, no row %s", path, len(rows), sel)
		}
		return &rows[n-1], nil
	}
	for i := len(rows) - 1; i >= 0; i-- {
		if strings.HasPrefix(rows[i].Commit, sel) {
			return &rows[i], nil
		}
	}
	return nil, fmt.Errorf("%s has no row for commit %s", path, sel)
}

func readRows(r io.Reader) ([]ledgerRow, error) {
	var rows []ledgerRow
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var row ledgerRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// bound is one end-to-end metric's contract from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json kbench reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readBounds returns the end-to-end bounds of BENCHMARK.json by name.
func readBounds(path string) (map[string]bound, error) {
	spec, err := readSpec(path)
	if err != nil {
		return nil, err
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	out := make(map[string]bound, len(spec.EndToEnd))
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges cur against base for one metric. The base run's
// spread is the distance between its quartiles as a share of its
// median. A change is worse when it loses more than the bound, better
// when it wins by more than both the bound and the spread. When the
// spread is wider than the bound the comparison is unresolved, unless
// the two quartile ranges do not overlap.
func verdict(b bound, base, cur stat) string {
	if base.Median == 0 {
		if cur.Median == 0 {
			return verdictSame
		}
		return verdictUnresolved
	}
	loss := (cur.Median - base.Median) / math.Abs(base.Median)
	if b.Better == "higher" {
		loss = -loss
	}
	spread := (base.P75 - base.P25) / math.Abs(base.Median)
	apart := cur.P25 > base.P75 || cur.P75 < base.P25
	switch {
	case spread > b.Bound && !apart:
		return verdictUnresolved
	case loss > b.Bound:
		return verdictWorse
	case -loss > math.Max(b.Bound, spread):
		return verdictBetter
	}
	return verdictSame
}

// compare prints a verdict per end-to-end metric and workload and
// returns how many were worse.
func compare(w io.Writer, bounds map[string]bound, base, cur ledgerRow) int {
	if base.Seed != cur.Seed || base.Seconds != cur.Seconds || base.Quick != cur.Quick {
		fmt.Fprintf(w, "note: the ledger row ran seed %d for %gs (quick %v); this run seed %d for %gs (quick %v)\n",
			base.Seed, base.Seconds, base.Quick, cur.Seed, cur.Seconds, cur.Quick)
	}
	worse := 0
	for _, wl := range workloadNames {
		baseStats, curStats := byName(base.Workloads[wl]), byName(cur.Workloads[wl])
		for _, name := range sortedBoundNames(bounds) {
			b := bounds[name]
			bs, okB := baseStats[name]
			cs, okC := curStats[name]
			if !okB || !okC {
				fmt.Fprintf(w, "%-13s %-18s missing\n", wl, name)
				continue
			}
			v := verdict(b, bs, cs)
			if v == verdictWorse {
				worse++
			}
			change := 0.0
			if bs.Median != 0 {
				change = 100 * (cs.Median - bs.Median) / math.Abs(bs.Median)
			}
			fmt.Fprintf(w, "%-13s %-18s %-10s %12.6g -> %-12.6g %+7.2f%% (bound %g%%, %s is better)\n",
				wl, name, v, bs.Median, cs.Median, change, 100*b.Bound, b.Better)
		}
	}
	return worse
}

func byName(stats []stat) map[string]stat {
	m := make(map[string]stat, len(stats))
	for _, s := range stats {
		m[s.Name] = s
	}
	return m
}

func sortedBoundNames(bounds map[string]bound) []string {
	names := make([]string, 0, len(bounds))
	for n := range bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
