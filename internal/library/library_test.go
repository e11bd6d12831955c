package library

import (
	"strings"
	"testing"
)

func TestXC3000Valid(t *testing.T) {
	l := XC3000()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(l.Devices) != 5 {
		t.Fatalf("device count = %d, want 5", len(l.Devices))
	}
}

// Table I shows per-CLB cost decreasing with device size; our price
// substitution must preserve that.
func TestXC3000PerCLBCostDecreases(t *testing.T) {
	l := XC3000()
	prev := l.Devices[0].CLBCost()
	for _, d := range l.Devices[1:] {
		if c := d.CLBCost(); c >= prev {
			t.Fatalf("per-CLB cost not decreasing at %s: %g >= %g", d.Name, c, prev)
		} else {
			prev = c
		}
	}
}

func TestXC3000Capacities(t *testing.T) {
	l := XC3000()
	want := map[string][2]int{
		"XC3020": {64, 64}, "XC3030": {100, 80}, "XC3042": {144, 96},
		"XC3064": {224, 110}, "XC3090": {320, 144},
	}
	if len(l.Devices) != len(want) {
		t.Fatalf("%d devices, want %d", len(l.Devices), len(want))
	}
	for _, d := range l.Devices {
		w, ok := want[d.Name]
		if !ok {
			t.Fatalf("unexpected device %s", d.Name)
		}
		if d.CLBs != w[0] || d.IOBs != w[1] {
			t.Fatalf("%s = (%d,%d), want (%d,%d)", d.Name, d.CLBs, d.IOBs, w[0], w[1])
		}
	}
}

func TestFits(t *testing.T) {
	d := Device{Name: "X", CLBs: 100, IOBs: 50, Price: 10, LowUtil: 0.5, HighUtil: 0.9}
	cases := []struct {
		clbs, terms int
		want        bool
	}{
		{50, 10, true},   // exactly at lower bound
		{90, 50, true},   // exactly at upper bound and terminal limit
		{49, 10, false},  // under-utilized
		{91, 10, false},  // over-utilized
		{50, 51, false},  // too many terminals
		{100, 10, false}, // over capacity
	}
	for _, c := range cases {
		if got := d.Fits(c.clbs, c.terms); got != c.want {
			t.Errorf("Fits(%d,%d) = %v, want %v", c.clbs, c.terms, got, c.want)
		}
	}
}

func TestMinMaxCLBs(t *testing.T) {
	d := Device{CLBs: 64, LowUtil: 0.0, HighUtil: 0.95}
	if d.MinCLBs() != 0 {
		t.Fatalf("MinCLBs = %d", d.MinCLBs())
	}
	if d.MaxCLBs() != 60 { // floor(0.95*64) = 60
		t.Fatalf("MaxCLBs = %d, want 60", d.MaxCLBs())
	}
}

func TestCheapestFit(t *testing.T) {
	l := XC3000()
	// Tiny partition: only XC3020 (lower bound 0) fits.
	d, ok := l.CheapestFit(10, 10)
	if !ok || d.Name != "XC3020" {
		t.Fatalf("CheapestFit(10,10) = %v %v", d.Name, ok)
	}
	// 90 CLBs fits XC3030 (61..95) and XC3042? min 96 CLBs -> no. So XC3030.
	d, ok = l.CheapestFit(90, 10)
	if !ok || d.Name != "XC3030" {
		t.Fatalf("CheapestFit(90,10) = %v %v", d.Name, ok)
	}
	// Too big for anything.
	if _, ok := l.CheapestFit(10000, 10); ok {
		t.Fatal("CheapestFit(10000) should fail")
	}
	// Terminal-bound case: 60 CLBs with 70 terminals skips XC3020 (64 IOBs).
	d, ok = l.CheapestFit(61, 70)
	if !ok || d.Name != "XC3030" {
		t.Fatalf("CheapestFit(61,70) = %v %v", d.Name, ok)
	}
}

func TestCustomSortsAndValidates(t *testing.T) {
	l, err := Custom(
		Device{Name: "B", CLBs: 200, IOBs: 10, Price: 5, HighUtil: 1},
		Device{Name: "A", CLBs: 100, IOBs: 10, Price: 3, HighUtil: 1},
	)
	if err != nil {
		t.Fatalf("Custom: %v", err)
	}
	if l.Devices[0].Name != "A" {
		t.Fatalf("not sorted: %v", l.Devices)
	}
	if _, err := Custom(Device{Name: "bad", CLBs: 0, IOBs: 1, Price: 1}); err == nil {
		t.Fatal("expected validation error for zero capacity")
	}
	if _, err := Custom(
		Device{Name: "dup", CLBs: 10, IOBs: 1, Price: 1, HighUtil: 1},
		Device{Name: "dup", CLBs: 20, IOBs: 1, Price: 1, HighUtil: 1},
	); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if _, err := Custom(Device{Name: "x", CLBs: 10, IOBs: 1, Price: 1, LowUtil: 0.9, HighUtil: 0.5}); err == nil {
		t.Fatal("expected bound-order error")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := (Library{}).Validate(); err == nil {
		t.Fatal("expected error for empty library")
	}
}

func TestLargest(t *testing.T) {
	if got := XC3000().Largest().Name; got != "XC3090" {
		t.Fatalf("largest = %s, want XC3090", got)
	}
}

func TestUtilization(t *testing.T) {
	d := Device{CLBs: 200}
	if got := d.Utilization(100); got != 0.5 {
		t.Fatalf("Utilization = %g", got)
	}
}

func TestHomogeneous(t *testing.T) {
	l, err := Homogeneous(Device{Name: "only", CLBs: 64, IOBs: 64, Price: 100, HighUtil: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Devices) != 1 {
		t.Fatalf("devices = %d", len(l.Devices))
	}
}

// A device whose utilization window holds no whole CLB count can host
// no part: Validate rejects it by name. The paper's libraries and the
// single-device libraries built from their parts validate, with their
// own lower bounds and with l_i = 0 (the homogeneous experiment's).
func TestValidateRejectsEmptyCLBWindow(t *testing.T) {
	bad := Device{Name: "narrow", CLBs: 10, IOBs: 10, Price: 1, LowUtil: 0.51, HighUtil: 0.52}
	if bad.MinCLBs() <= bad.MaxCLBs() {
		t.Fatalf("window [%d,%d] is not empty", bad.MinCLBs(), bad.MaxCLBs())
	}
	err := Library{Devices: []Device{bad}}.Validate()
	if err == nil || !strings.Contains(err.Error(), `"narrow"`) {
		t.Fatalf("Validate = %v, want an error naming %q", err, bad.Name)
	}
	if _, err := Homogeneous(bad); err == nil {
		t.Fatal("Homogeneous accepted a device with an empty CLB window")
	}
	for _, l := range []Library{XC3000()} {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, d := range l.Devices {
			if _, err := Homogeneous(d); err != nil {
				t.Fatal(err)
			}
			d.LowUtil = 0
			if _, err := Homogeneous(d); err != nil {
				t.Fatal(err)
			}
		}
	}
}
