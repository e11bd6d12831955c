// Package library models the heterogeneous FPGA device library of
// Kužnar et al. (DAC'94, Table I). Each device D_i = (c_i, t_i, d_i,
// l_i, u_i) carries its CLB capacity, terminal (IOB) count, unit price
// and lower/upper bounds on CLB utilization. A partition P_j is
// feasible for device D_i when its CLB utilization lies within
// [l_i, u_i] and its terminal count t_Pj does not exceed t_i.
package library

import (
	"fmt"
	"math"
	"sort"
)

// Device describes one FPGA type.
type Device struct {
	Name     string
	CLBs     int     // c_i: capacity in configurable logic blocks
	IOBs     int     // t_i: number of input/output blocks (terminals)
	Price    float64 // d_i: unit cost (normalized dollars)
	LowUtil  float64 // l_i: lower bound on CLB utilization
	HighUtil float64 // u_i: upper bound on CLB utilization
}

// CLBCost returns d_i / c_i, the per-CLB cost reported in Table I.
func (d Device) CLBCost() float64 { return d.Price / float64(d.CLBs) }

// MinCLBs returns the smallest CLB count that meets the lower
// utilization bound.
func (d Device) MinCLBs() int { return int(math.Ceil(d.LowUtil * float64(d.CLBs))) }

// MaxCLBs returns the largest CLB count that meets the upper
// utilization bound.
func (d Device) MaxCLBs() int { return int(math.Floor(d.HighUtil * float64(d.CLBs))) }

// Fits reports whether a partition with the given CLB and terminal
// demand is feasible on the device.
func (d Device) Fits(clbs, terminals int) bool {
	return clbs >= d.MinCLBs() && clbs <= d.MaxCLBs() && terminals <= d.IOBs
}

// Utilization returns the CLB utilization a partition of the given size
// would have on this device.
func (d Device) Utilization(clbs int) float64 { return float64(clbs) / float64(d.CLBs) }

// Library is an ordered set of device types (ascending capacity).
type Library struct {
	Devices []Device
}

// XC3000 returns the subset of the Xilinx XC3000 family used in the
// paper's Table I. The published price column is partially illegible in
// the available text; the values below preserve the qualitative
// property the paper shows (per-CLB cost decreases with device size)
// and the capacity/terminal counts of the real parts. The lower
// utilization bounds are derived from the next smaller device so that
// an under-filled large device is never cheaper than a smaller one;
// the smallest device accepts any load.
func XC3000() Library {
	return Library{Devices: []Device{
		{Name: "XC3020", CLBs: 64, IOBs: 64, Price: 110, LowUtil: 0.00, HighUtil: 0.90},
		{Name: "XC3030", CLBs: 100, IOBs: 80, Price: 163, LowUtil: 0.57, HighUtil: 0.90},
		{Name: "XC3042", CLBs: 144, IOBs: 96, Price: 224, LowUtil: 0.62, HighUtil: 0.88},
		{Name: "XC3064", CLBs: 224, IOBs: 110, Price: 319, LowUtil: 0.56, HighUtil: 0.85},
		{Name: "XC3090", CLBs: 320, IOBs: 144, Price: 437, LowUtil: 0.59, HighUtil: 0.85},
	}}
}

// Homogeneous builds a single-device library: with it, the cost
// objective (Eq. 1) degenerates to minimizing the number of devices k,
// the special case the paper's introduction describes.
func Homogeneous(d Device) (Library, error) {
	return Custom(d)
}

// Custom builds a validated library from the given devices, sorted by
// ascending CLB capacity.
func Custom(devices ...Device) (Library, error) {
	l := Library{Devices: append([]Device(nil), devices...)}
	sort.Slice(l.Devices, func(i, j int) bool { return l.Devices[i].CLBs < l.Devices[j].CLBs })
	if err := l.Validate(); err != nil {
		return Library{}, err
	}
	return l, nil
}

// Validate checks device sanity: positive capacity/terminals/price,
// 0 ≤ l_i ≤ u_i ≤ 1 with a whole CLB count in [l_i·c_i, u_i·c_i],
// ascending capacities, unique names.
func (l Library) Validate() error {
	if len(l.Devices) == 0 {
		return fmt.Errorf("library: no devices")
	}
	names := make(map[string]bool, len(l.Devices))
	prev := 0
	for _, d := range l.Devices {
		if d.Name == "" {
			return fmt.Errorf("library: device with empty name")
		}
		if names[d.Name] {
			return fmt.Errorf("library: duplicate device name %q", d.Name)
		}
		names[d.Name] = true
		if d.CLBs <= 0 || d.IOBs <= 0 || d.Price <= 0 {
			return fmt.Errorf("library: device %q has non-positive capacity, terminals or price", d.Name)
		}
		if d.LowUtil < 0 || d.HighUtil > 1 || d.LowUtil > d.HighUtil {
			return fmt.Errorf("library: device %q has invalid utilization bounds [%g,%g]", d.Name, d.LowUtil, d.HighUtil)
		}
		if d.MinCLBs() > d.MaxCLBs() {
			return fmt.Errorf("library: device %q has an empty CLB window [%d,%d]", d.Name, d.MinCLBs(), d.MaxCLBs())
		}
		if d.CLBs < prev {
			return fmt.Errorf("library: devices not sorted by capacity at %q", d.Name)
		}
		prev = d.CLBs
	}
	return nil
}

// Largest returns the device with the greatest CLB capacity.
func (l Library) Largest() Device { return l.Devices[len(l.Devices)-1] }

// CheapestFit returns the lowest-priced device on which a partition
// with the given CLB and terminal demand is feasible.
func (l Library) CheapestFit(clbs, terminals int) (Device, bool) {
	best := Device{}
	found := false
	for _, d := range l.Devices {
		if !d.Fits(clbs, terminals) {
			continue
		}
		if !found || d.Price < best.Price {
			best = d
			found = true
		}
	}
	return best, found
}
