// Package core is the public face of the library: multi-way netlist
// partitioning into heterogeneous FPGAs with minimization of total
// device cost and interconnect (Kužnar, Brglez, Zajc — DAC'94). Its
// input is a circuit already mapped into XC3000-style CLBs, modeled
// as a hypergraph with per-output adjacency vectors (hypergraph; kpart
// and kpartd map a gate-level .gnl netlist through techmap first). It is
// partitioned over a device library (library) by the cost-driven
// recursive engine (kway) whose bipartitioner (fm) performs min-cut
// refinement with functional replication (replication).
//
// Quick start:
//
//	g := ...                       // *hypergraph.Graph, e.g. from bench.Suite()[0].Build()
//	res, err := core.Partition(g, core.Options{})
//	fmt.Println(res.Summary)       // k, device cost (Eq. 1), IOB utilization (Eq. 2)
//
// Options is kway.Options, so the defaults live in one place, kway's
// Options.withDefaults: a nil Threshold means T = 1, and an explicit
// one is taken literally (t := 0; core.Options{Threshold: &t} allows
// maximum replication).
package core

import (
	"context"

	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/replication"
)

// NoReplication disables functional replication when used as the
// Threshold, reproducing the DAC'93 baseline partitioner ([3]).
const NoReplication = fm.NoReplication

// Options configures Partition. It is
// kway.Options itself: the engine options, their documentation and
// their defaults are declared once, in package kway. The zero value
// is the paper's setup — the XC3000 library, threshold T = 1 (a nil
// Threshold) and the best of 50 feasible solutions.
type Options = kway.Options

// Result is the outcome of a k-way partition: the materialized part
// subcircuits with their devices, and the Eq. 1 / Eq. 2 summary.
type Result = kway.Result

// Engine is kway.Engine: it runs searches that reuse one another's
// carve storage and returns results without part graphs. A long-lived
// caller that runs many searches and reads only the summary (kpartd)
// owns one; Partition runs each search on a fresh one.
type Engine = kway.Engine

// Partition finds a feasible k-way partition of the mapped circuit
// minimizing total device cost (Eq. 1) with average IOB utilization
// (Eq. 2) as tie-breaker.
func Partition(g *hypergraph.Graph, opts Options) (Result, error) {
	return kway.Partition(g, opts)
}

// PartitionContext is Partition under an external budget: ctx cancels
// the search at its deterministic checkpoints. See
// kway.PartitionContext for the truncation contract.
func PartitionContext(ctx context.Context, g *hypergraph.Graph, opts Options) (Result, error) {
	return kway.PartitionContext(ctx, g, opts)
}

// BipartitionOptions configures MinCutBipartition.
type BipartitionOptions struct {
	// Threshold is the replication threshold T (NoReplication disables;
	// the paper's first experiment uses T = 0 for maximum replication).
	Threshold int
	// Starts is the number of random initial partitions (default 1).
	Starts int
	// RefineWorkers selects the FM engine (see Options.RefineWorkers).
	RefineWorkers int
	Seed          int64
}

// MinCutBipartition reproduces the paper's first experiment on one
// circuit: bipartition into two (nearly) equal blocks minimizing the
// cut, optionally with functional replication. Each block holds 45–55%
// of the area, with 10% headroom for replication growth (the expansion
// the paper reports, CLB utilization up to ~90%); plain and
// replication runs get the same bounds, so a replication run from the
// same seed is a strict refinement of its plain run. The returned
// state exposes the assignment, replication set and cut.
func MinCutBipartition(g *hypergraph.Graph, opts BipartitionOptions) (*replication.State, fm.Result, error) {
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	maxA = [2]int{maxA[0] * 11 / 10, maxA[1] * 11 / 10}
	return fm.Bipartition(g, fm.Options{
		Config: fm.Config{
			MinArea: minA, MaxArea: maxA,
			Threshold: opts.Threshold, Seed: opts.Seed,
			RefineWorkers: opts.RefineWorkers,
		},
		Starts: opts.Starts,
	})
}
