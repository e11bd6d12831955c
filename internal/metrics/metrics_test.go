package metrics

import (
	"math"
	"strings"
	"testing"

	"fpgapart/internal/library"
)

func dev(name string, clbs, iobs int, price float64) library.Device {
	return library.Device{Name: name, CLBs: clbs, IOBs: iobs, Price: price, LowUtil: 0, HighUtil: 1}
}

func sample() Solution {
	return Solution{Parts: []Part{
		{Device: dev("A", 100, 50, 10), CLBs: 80, Terminals: 25, Cells: 80},
		{Device: dev("B", 200, 100, 18), CLBs: 100, Terminals: 50, Cells: 95, ReplicatedCells: 5},
	}}
}

func TestDeviceCost(t *testing.T) {
	if got := sample().DeviceCost(); got != 28 {
		t.Fatalf("cost = %g, want 28", got)
	}
}

func TestAvgIOBUtil(t *testing.T) {
	// (25+50)/(50+100) = 0.5
	if got := sample().AvgIOBUtil(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("iob util = %g, want 0.5", got)
	}
}

func TestAvgCLBUtil(t *testing.T) {
	// (80+100)/(100+200) = 0.6
	if got := sample().AvgCLBUtil(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("clb util = %g, want 0.6", got)
	}
}

func TestCellsAndReplication(t *testing.T) {
	s := sample()
	if s.ReplicatedCells() != 5 {
		t.Fatalf("repl=%d", s.ReplicatedCells())
	}
	// 5 replicas over 170 source cells.
	if got := s.ReplicatedPct(170); math.Abs(got-100*5.0/170) > 1e-12 {
		t.Fatalf("pct = %g", got)
	}
	if s.ReplicatedPct(0) != 0 {
		t.Fatal("pct with zero source cells should be 0")
	}
}

func TestBetterLexicographic(t *testing.T) {
	cheap := Solution{Parts: []Part{{Device: dev("A", 100, 50, 10), CLBs: 50, Terminals: 40}}}
	costly := Solution{Parts: []Part{{Device: dev("B", 100, 50, 20), CLBs: 50, Terminals: 1}}}
	if !cheap.Score().Better(costly.Score()) {
		t.Fatal("cheaper solution must win regardless of interconnect")
	}
	// Equal cost: lower IOB utilization wins.
	a := Solution{Parts: []Part{{Device: dev("A", 100, 50, 10), CLBs: 50, Terminals: 10}}}
	b := Solution{Parts: []Part{{Device: dev("A", 100, 50, 10), CLBs: 50, Terminals: 20}}}
	if !a.Score().Better(b.Score()) || b.Score().Better(a.Score()) {
		t.Fatal("tie-break on IOB utilization failed")
	}
}

func TestDeviceCounts(t *testing.T) {
	s := Solution{Parts: []Part{
		{Device: dev("A", 1, 1, 1)}, {Device: dev("A", 1, 1, 1)}, {Device: dev("B", 1, 1, 1)},
	}}
	m := s.DeviceCounts()
	if m["A"] != 2 || m["B"] != 1 {
		t.Fatalf("counts = %v", m)
	}
}

func TestEmptySolutionUtils(t *testing.T) {
	var s Solution
	if s.AvgIOBUtil() != 0 || s.AvgCLBUtil() != 0 || s.K() != 0 {
		t.Fatal("empty solution should report zeros")
	}
}

func TestString(t *testing.T) {
	if got := sample().String(); !strings.Contains(got, "k=2") || !strings.Contains(got, "cost=28") {
		t.Fatalf("String = %q", got)
	}
}
