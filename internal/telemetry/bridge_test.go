package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/trace"
)

// TestBridgeCoversRejectReasons reads every Reject* constant declared
// in package trace from its source and checks the Bridge counts an
// event with that reason under its own series, not under "other": a
// reason declared but missing from rejectReasons would otherwise be
// counted as "other" without any error.
func TestBridgeCoversRejectReasons(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../trace/trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Reject") {
			return true
		}
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("%s is not a string constant", vs.Names[0].Name)
		}
		v, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		reasons = append(reasons, v)
		return true
	})
	if len(reasons) != len(rejectReasons) {
		t.Fatalf("trace declares %d reject reasons %v, the Bridge registers %d", len(reasons), reasons, len(rejectReasons))
	}
	r := NewRegistry()
	b := NewBridge(r)
	for _, reason := range reasons {
		b.Event(trace.Event{Kind: trace.KindCarveRejected, Reason: reason})
	}
	if got := b.rejectedOther.Value(); got != 0 {
		t.Fatalf("%d declared reasons counted as other", got)
	}
	text := render(t, r)
	for _, reason := range reasons {
		if want := MetricCarveRejected + `{reason="` + reason + `"} 1`; !strings.Contains(text, want) {
			t.Errorf("no series %s", want)
		}
	}
}

func TestBridgeMapsEvents(t *testing.T) {
	r := NewRegistry()
	b := NewBridge(r)
	events := []trace.Event{
		{Kind: trace.KindFMPass, Pass: 1, Moves: 40, Cut: 12},
		{Kind: trace.KindFMPass, Pass: 2, Moves: 10, Cut: 7},
		{Kind: trace.KindCarveAccepted, Replicas: 3, Rollbacks: 5, Device: "XC3042"},
		{Kind: trace.KindCarveRejected, Reason: trace.RejectTerminals, Rollbacks: 2},
		{Kind: trace.KindCarveRejected, Reason: trace.RejectNoDevice},
		{Kind: trace.KindCarveRejected, Reason: "never-heard-of-it"},
		{Kind: trace.KindSolution, Feasible: true, Improved: true, Cost: 756},
		{Kind: trace.KindSolution, Feasible: false, Panic: true},
		{Kind: trace.KindPhase, Phase: trace.PhaseSearch, Dur: 250 * time.Millisecond},
		{Kind: trace.KindPhase, Phase: "mystery", Dur: time.Millisecond},
		{Kind: trace.KindParRound, Pass: 1, Round: 0, Proposals: 300, Commits: 4, Stale: 9},
		{Kind: trace.KindParRound, Pass: 1, Round: 1, Proposals: 17, Commits: 2, Stale: 3},
	}
	for _, e := range events {
		b.Event(e)
	}
	if got := b.fmPasses.Value(); got != 2 {
		t.Fatalf("fm passes %d", got)
	}
	if got := b.fmMoves.Value(); got != 50 {
		t.Fatalf("fm moves %d", got)
	}
	if got := b.cutAfterPass.Count(); got != 2 {
		t.Fatalf("cut histogram count %d", got)
	}
	if got := b.carveAccepted.Value(); got != 1 {
		t.Fatalf("carves %d", got)
	}
	if got := b.replicas.Value(); got != 3 {
		t.Fatalf("replicas %d", got)
	}
	if got := b.rollbacks.Value(); got != 7 {
		t.Fatalf("rollbacks %d", got)
	}
	if got := b.carveRejected[trace.RejectTerminals].Value(); got != 1 {
		t.Fatalf("terminals rejects %d", got)
	}
	if got := b.rejectedOther.Value(); got != 1 {
		t.Fatalf("unknown reason should land on other, got %d", got)
	}
	if got := b.solutions[true].Value(); got != 1 {
		t.Fatalf("feasible solutions %d", got)
	}
	if got := b.solutions[false].Value(); got != 1 {
		t.Fatalf("infeasible solutions %d", got)
	}
	if got := b.improved.Value(); got != 1 {
		t.Fatalf("improved %d", got)
	}
	if got := b.panics.Value(); got != 1 {
		t.Fatalf("panics %d", got)
	}
	if got := b.phase[trace.PhaseSearch].Count(); got != 1 {
		t.Fatalf("search phase count %d", got)
	}
	if got := b.phaseOther.Count(); got != 1 {
		t.Fatalf("unknown phase should land on other, got %d", got)
	}
	if got := b.parRounds.Value(); got != 2 {
		t.Fatalf("parfm rounds %d", got)
	}
	if got := b.parProposals.Value(); got != 317 {
		t.Fatalf("parfm proposals %d", got)
	}
	if got := b.parCommits.Value(); got != 6 {
		t.Fatalf("parfm commits %d", got)
	}
	if got := b.parStale.Value(); got != 12 {
		t.Fatalf("parfm stale %d", got)
	}
	if got := b.parCommitsPerRnd.Count(); got != 2 {
		t.Fatalf("parfm commits-per-round count %d", got)
	}

	out := render(t, r)
	for _, want := range []string{
		`fpgapart_carve_rejected_total{reason="terminals"} 1`,
		`fpgapart_carve_accepted_total 1`,
		`fpgapart_solutions_total{feasible="true"} 1`,
		`fpgapart_phase_seconds_count{phase="search"} 1`,
		`fpgapart_parfm_commits_total 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// The bridge sits on the FM hot path via the trace stream: steady-state
// event observation must not allocate.
func TestBridgeEventAllocs(t *testing.T) {
	b := NewBridge(NewRegistry())
	events := []trace.Event{
		{Kind: trace.KindFMPass, Moves: 12, Cut: 9},
		{Kind: trace.KindCarveAccepted, Replicas: 1, Rollbacks: 2},
		{Kind: trace.KindCarveRejected, Reason: "fm"},
		{Kind: trace.KindSolution, Feasible: true, Improved: true},
		{Kind: trace.KindPhase, Phase: trace.PhaseFold, Dur: time.Millisecond},
		{Kind: trace.KindLevel, Level: 2, Cells: 120, Cut: 30},
		{Kind: trace.KindParRound, Pass: 1, Round: 2, Proposals: 40, Commits: 4, Stale: 2},
	}
	if avg := testing.AllocsPerRun(200, func() {
		for _, e := range events {
			b.Event(e)
		}
	}); avg != 0 {
		t.Fatalf("Bridge.Event allocates %v times", avg)
	}
}
