// Package metrics implements the two objective functions of Kužnar et
// al. (DAC'94): total device cost $k = Σ d_i·n_i (Eq. 1) and the
// interconnect measure λ_k = Σ_j t_Pj / Σ_i t_i·n_i, the average IOB
// utilization over the devices of a k-way partition (Eq. 2), plus the
// average CLB utilization reported in Table V.
package metrics

import (
	"fmt"

	"fpgapart/internal/library"
)

// Part summarizes one partition P_j of a k-way solution together with
// the device that implements it.
type Part struct {
	Device          library.Device
	CLBs            int // CLBs assigned, including replicas absorbed by the device
	Terminals       int // t_Pj: IOBs used (primary I/O nets + cut nets touching P_j)
	Cells           int // cell instances placed in the partition
	ReplicatedCells int // instances that are replicas of cells placed elsewhere
}

// Solution is a k-way partition summary.
type Solution struct {
	Parts []Part
	// TopoCost is the hop-weighted interconnect of the solution on a
	// board topology (sum over nets of the Steiner span cost of the
	// device slots the net touches; see internal/topology). It is
	// meaningful only when HasTopo is set — flat terminal-cut runs
	// leave both fields zero.
	TopoCost int
	HasTopo  bool
}

// K returns the number of partitions.
func (s Solution) K() int { return len(s.Parts) }

// DeviceCost evaluates Eq. (1): the summed price of all devices used.
func (s Solution) DeviceCost() float64 {
	c := 0.0
	for _, p := range s.Parts {
		c += p.Device.Price
	}
	return c
}

// AvgIOBUtil evaluates Eq. (2): Σ t_Pj / Σ t_i over the devices used.
func (s Solution) AvgIOBUtil() float64 {
	used, avail := 0, 0
	for _, p := range s.Parts {
		used += p.Terminals
		avail += p.Device.IOBs
	}
	if avail == 0 {
		return 0
	}
	return float64(used) / float64(avail)
}

// AvgCLBUtil returns Σ CLBs assigned / Σ CLB capacity (Table V metric).
func (s Solution) AvgCLBUtil() float64 {
	used, avail := 0, 0
	for _, p := range s.Parts {
		used += p.CLBs
		avail += p.Device.CLBs
	}
	if avail == 0 {
		return 0
	}
	return float64(used) / float64(avail)
}

// ReplicatedCells returns the number of replica instances.
func (s Solution) ReplicatedCells() int {
	n := 0
	for _, p := range s.Parts {
		n += p.ReplicatedCells
	}
	return n
}

// ReplicatedPct returns the percentage of original cells that were
// replicated, given the source circuit's cell count (Table IV metric).
func (s Solution) ReplicatedPct(sourceCells int) float64 {
	if sourceCells == 0 {
		return 0
	}
	return 100 * float64(s.ReplicatedCells()) / float64(sourceCells)
}

// DeviceCounts returns n_i per device name, the multiset of devices the
// solution buys.
func (s Solution) DeviceCounts() map[string]int {
	m := make(map[string]int)
	for _, p := range s.Parts {
		m[p.Device.Name]++
	}
	return m
}

// Score is what a best-of-N search reads off one solution: the values
// the lexicographic objective compares, plus the part count it reports.
// Any solution representation (an in-memory Solution, a service's JSON
// result) that yields a Score folds under the same order.
type Score struct {
	Cost    float64 // Eq. 1 total device cost
	K       int     // number of parts (reported, never compared)
	Topo    int     // hop-weighted interconnect, meaningful when HasTopo
	HasTopo bool
	IOBUtil float64 // Eq. 2 average IOB utilization
}

// Better reports whether s is preferable to t under the paper's
// lexicographic objective: lower device cost first (Eq. 1), then —
// when both solutions carry a board-topology score — lower
// hop-weighted interconnect, then lower average IOB utilization
// (Eq. 2). Flat solutions never set HasTopo, so the classic two-level
// order is unchanged for them.
func (s Score) Better(t Score) bool {
	const eps = 1e-9
	if s.Cost < t.Cost-eps {
		return true
	}
	if s.Cost > t.Cost+eps {
		return false
	}
	if s.HasTopo && t.HasTopo && s.Topo != t.Topo {
		return s.Topo < t.Topo
	}
	return s.IOBUtil < t.IOBUtil
}

// Score evaluates the solution's objective values.
func (s Solution) Score() Score {
	return Score{Cost: s.DeviceCost(), K: s.K(), Topo: s.TopoCost, HasTopo: s.HasTopo, IOBUtil: s.AvgIOBUtil()}
}

// String renders a compact one-line summary.
func (s Solution) String() string {
	if s.HasTopo {
		return fmt.Sprintf("k=%d cost=%.0f clb=%.0f%% iob=%.0f%% topo=%d",
			s.K(), s.DeviceCost(), 100*s.AvgCLBUtil(), 100*s.AvgIOBUtil(), s.TopoCost)
	}
	return fmt.Sprintf("k=%d cost=%.0f clb=%.0f%% iob=%.0f%%",
		s.K(), s.DeviceCost(), 100*s.AvgCLBUtil(), 100*s.AvgIOBUtil())
}
