package library

import (
	"testing"
)

// edgeLib is a two-device library with hand-checkable windows:
//
//	small: 100 CLBs, util [0.50, 0.90] → MinCLBs 50, MaxCLBs 90, 20 IOBs
//	big:   200 CLBs, util [0.60, 0.85] → MinCLBs 120, MaxCLBs 170, 40 IOBs
func edgeLib(t *testing.T) Library {
	t.Helper()
	l, err := Custom(
		Device{Name: "small", CLBs: 100, IOBs: 20, Price: 100, LowUtil: 0.50, HighUtil: 0.90},
		Device{Name: "big", CLBs: 200, IOBs: 40, Price: 150, LowUtil: 0.60, HighUtil: 0.85},
	)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFeasibleHostsEdges exercises CheapestFit on the exact
// utilization-window and terminal boundaries: one CLB inside/outside
// each Low/High bound, zero terminals, and terminal counts at and just
// past each device's IOB count.
func TestFeasibleHostsEdges(t *testing.T) {
	l := edgeLib(t)
	cases := []struct {
		name            string
		clbs, terminals int
		want            string // "" when no device fits
	}{
		{"zero demand", 0, 0, ""},
		{"below small's low bound", 49, 0, ""},
		{"exactly small's low bound", 50, 0, "small"},
		{"exactly small's high bound", 90, 0, "small"},
		{"above small, below big's low", 91, 0, ""},
		{"exactly big's low bound", 120, 0, "big"},
		{"in both windows? no — windows disjoint", 100, 0, ""},
		{"exactly big's high bound", 170, 0, "big"},
		{"above every window", 171, 0, ""},
		{"zero terminals always fine", 60, 0, "small"},
		{"exactly small's IOBs", 60, 20, "small"},
		{"one over small's IOBs", 60, 21, ""},
		{"exactly big's IOBs", 150, 40, "big"},
		{"one over big's IOBs", 150, 41, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := l.CheapestFit(tc.clbs, tc.terminals)
			if ok != (tc.want != "") || d.Name != tc.want {
				t.Fatalf("CheapestFit(%d, %d) = %q %v, want %q", tc.clbs, tc.terminals, d.Name, ok, tc.want)
			}
		})
	}
}

// TestFeasibleHostsOverlapOrder checks that CheapestFit picks the
// lowest price when several devices fit the same demand, the cheapest
// sitting between two equally priced ones in library order.
func TestFeasibleHostsOverlapOrder(t *testing.T) {
	l, err := Custom(
		Device{Name: "a", CLBs: 100, IOBs: 30, Price: 120, LowUtil: 0, HighUtil: 0.9},
		Device{Name: "b", CLBs: 150, IOBs: 30, Price: 90, LowUtil: 0, HighUtil: 0.9},
		Device{Name: "c", CLBs: 200, IOBs: 30, Price: 120, LowUtil: 0, HighUtil: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := l.CheapestFit(80, 10)
	if !ok || d.Name != "b" {
		t.Fatalf("CheapestFit = %v %v, want b", d, ok)
	}
}

// TestXC3000WindowBoundaries pins the derived Min/MaxCLBs of the
// paper's Table I library — the windows every carve is checked
// against. Ceil/floor behavior matters: e.g. XC3042's low bound
// 0.62*144 = 89.28 must round up to 90.
func TestXC3000WindowBoundaries(t *testing.T) {
	want := map[string][2]int{
		"XC3020": {0, 57},    // 0.00*64 → 0, 0.90*64 = 57.6 → 57
		"XC3030": {57, 90},   // 0.57*100 → 57, 0.90*100 → 90
		"XC3042": {90, 126},  // 0.62*144 = 89.28 → 90, 0.88*144 = 126.72 → 126
		"XC3064": {126, 190}, // 0.56*224 = 125.44 → 126, 0.85*224 = 190.4 → 190
		"XC3090": {189, 272}, // 0.59*320 = 188.8 → 189, 0.85*320 → 272
	}
	for _, d := range XC3000().Devices {
		w, ok := want[d.Name]
		if !ok {
			t.Fatalf("unexpected device %s", d.Name)
		}
		if d.MinCLBs() != w[0] || d.MaxCLBs() != w[1] {
			t.Fatalf("%s window [%d,%d], want [%d,%d]", d.Name, d.MinCLBs(), d.MaxCLBs(), w[0], w[1])
		}
		if d.Fits(w[0], 0) != (w[0] >= w[0]) || !d.Fits(w[1], 0) {
			t.Fatalf("%s does not accept its own window boundaries", d.Name)
		}
		if w[0] > 0 && d.Fits(w[0]-1, 0) {
			t.Fatalf("%s accepts %d below its low bound", d.Name, w[0]-1)
		}
		if d.Fits(w[1]+1, 0) {
			t.Fatalf("%s accepts %d above its high bound", d.Name, w[1]+1)
		}
	}
}
