// Command kbench is the repository's benchmark. It measures the
// partitioner end to end and layer by layer on four workloads: the
// paper's nine circuits (suite-flat), a large multilevel V-cycle
// (large-vcycle), a board-topology search (board-mesh) and a kpartd
// coordinator fanning jobs out to two workers (kpartd-coord).
//
// Usage:
//
//	kbench [-seed N] [-seconds S] [-quick] [-ledger] [-commit REV] [-against ROW]
//	kbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-quick]
//
// Without -workload, kbench runs every workload in its own child
// process, untraced and then traced, and prints one row per metric:
//
//	workload metric median p25 p75 n unit
//
// followed by the traced span breakdown (count, total and self
// seconds per span name). -ledger appends the run to
// cmd/kbench/ledger.jsonl; -against compares the run with a ledger row
// using the bounds in BENCHMARK.json and exits 1 on a "worse" verdict.
//
// With -workload, kbench runs one workload in this process. -trace 0
// reports the end-to-end metrics, -trace 1 the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":4,"failed":0,"metrics":{"latency_ms":{"value":13210.4,"unit":"ms"},...}}
//
// The exit status is 0 only when every op passed its correctness gate.
// See cmd/kbench/README.md for the metrics, the workloads and why each
// was chosen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order kbench runs them.
var workloadNames = []string{"suite-flat", "large-vcycle", "board-mesh", "kpartd-coord"}

// report is one workload run's outcome. A -workload run prints it as
// a "report" line before its result line, for the parent kbench.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	Metrics   []stat    `json:"metrics"`
	Spans     []spanRow `json:"spans,omitempty"`
}

const reportPrefix = "report "

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process ("+strings.Join(workloadNames, ", ")+")")
	seed := fs.Int64("seed", 1, "workload seed: generates the circuits and the search seeds")
	seconds := fs.Float64("seconds", 25, "how long one workload run measures")
	traceFlag := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	quick := fs.Bool("quick", false, "1/8-size circuits, one op and 40 jobs per run")
	ledger := fs.Bool("ledger", false, "append the run to "+ledgerPath)
	commit := fs.String("commit", "", "commit recorded in the ledger row (default: the binary's vcs.revision)")
	against := fs.String("against", "", "compare with a ledger row: a 1-based row number, a negative number counting from the end, or a commit prefix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "kbench: bad arguments; see -h")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, quick: *quick}
	if cfg.quick {
		cfg.seconds = 0
	}

	if *workload != "" {
		if *ledger || *against != "" {
			fmt.Fprintln(stderr, "kbench: -ledger and -against need a run of every workload; drop -workload")
			return 2
		}
		rep, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "kbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		printReport(stdout, rep)
		for _, e := range rep.Errors {
			fmt.Fprintf(stderr, "kbench: %s: %s\n", rep.Workload, e)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", reportPrefix, line)
		if err := json.NewEncoder(stdout).Encode(resultLine(rep)); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		if !rep.Correct {
			return 1
		}
		return 0
	}

	var bounds map[string]bound
	var base *ledgerRow
	if *against != "" {
		var err error
		if bounds, err = readBounds(benchmarkPath); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 2
		}
		if base, err = findRow(ledgerPath, *against); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 2
		}
	}
	reps, err := runAll(cfg, stderr)
	for _, rep := range reps {
		printReport(stdout, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	status := 0
	if *ledger {
		row := newLedgerRow(cfg, *commit, reps)
		if err := appendRow(ledgerPath, row); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "ledger: appended row for commit %s to %s\n", row.Commit, ledgerPath)
	}
	if base != nil {
		if worse := compare(stdout, bounds, *base, newLedgerRow(cfg, *commit, reps)); worse > 0 {
			fmt.Fprintf(stderr, "kbench: %d metrics worse than the ledger row of commit %s\n", worse, base.Commit)
			status = 1
		}
	}
	return status
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (report, error) {
	var res *result
	var err error
	if w, ok := cliWorkloads[cfg.workload]; ok {
		res, err = runCLI(w, cfg)
	} else if cfg.workload == "kpartd-coord" {
		res, err = runKpartd(cfg)
	} else {
		err = fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return report{}, err
	}
	rep := report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Errors: res.errs}
	if cfg.trace {
		rep.Metrics = res.perLayer()
		rep.Spans = res.agg.sorted()
	} else {
		rep.Metrics = res.endToEnd()
	}
	return rep, nil
}

// resultLine is the JSON object a -workload run ends its output with.
func resultLine(rep report) map[string]any {
	metrics := make(map[string]any, len(rep.Metrics))
	for _, m := range rep.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Median, "unit": m.Unit}
	}
	return map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics}
}

// printReport prints one row per metric and, for a traced run, one per
// span name.
func printReport(w io.Writer, rep report) {
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%-13s %-28s %12.6g %12.6g %12.6g %6d %s\n", rep.Workload, m.Name, m.Median, m.P25, m.P75, m.N, m.Unit)
	}
	for _, s := range rep.Spans {
		fmt.Fprintf(w, "%-13s span %-23s count %9d total_s %10.4f self_s %10.4f\n", rep.Workload, s.Name, s.Count, s.TotalS, s.SelfS)
	}
	fmt.Fprintf(w, "%-13s %-28s %12d of %d ops failed\n", rep.Workload, "fail", rep.Failed, rep.Attempted)
}

// runAll runs every workload in a child process of this binary,
// untraced then traced, and collects their reports.
func runAll(cfg config, stderr io.Writer) ([]report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []report
	var errs []error
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloadNames {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "-trace", trace}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, runErr := cmd.Output()
			rep, parseErr := parseReport(out)
			if parseErr != nil {
				errs = append(errs, fmt.Errorf("%s -trace %s: %w", w, trace, errors.Join(runErr, parseErr)))
				continue
			}
			if runErr != nil {
				errs = append(errs, fmt.Errorf("%s -trace %s: %w", w, trace, runErr))
			}
			reps = append(reps, rep)
		}
	}
	return reps, errors.Join(errs...)
}

// parseReport finds the report line in a child's output.
func parseReport(out []byte) (report, error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			var rep report
			err := json.Unmarshal([]byte(line), &rep)
			return rep, err
		}
	}
	return report{}, errors.New("no report line in the output")
}
