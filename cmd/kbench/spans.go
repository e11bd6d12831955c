package main

import (
	"sort"
	"time"

	"fpgapart/internal/span"
)

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap (the parallel
// attempts under one search span) and may come from another process
// (a worker's job span under a coordinator's rpc span, on a clock that
// need not agree exactly), so each child interval is clipped to the
// parent's and the union of the clipped intervals is subtracted —
// never the plain sum of the children's durations.
func selfTimes(spans []span.Span) []time.Duration {
	index := make(map[span.ID]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	children := make(map[int][]int)
	for i := range spans {
		if spans[i].Parent == 0 {
			continue
		}
		if p, ok := index[spans[i].Parent]; ok && p != i {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	var ivs [][2]int64
	for i := range spans {
		lo := spans[i].Start.UnixNano()
		hi := lo + int64(spans[i].Dur)
		ivs = ivs[:0]
		for _, c := range children[i] {
			s := spans[c].Start.UnixNano()
			e := s + int64(spans[c].Dur)
			s, e = max(s, lo), min(e, hi)
			if e > s {
				ivs = append(ivs, [2]int64{s, e})
			}
		}
		out[i] = spans[i].Dur - time.Duration(unionLength(ivs))
	}
	return out
}

// unionLength is the total length covered by the intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] <= curE:
			curE = max(curE, iv[1])
		default:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanRow is the traced breakdown for one span name on one workload.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanAgg accumulates the span trees of a traced run.
type spanAgg struct {
	rows map[string]*spanRow
	// selfs keeps every span's self time for the names whose
	// per-span median is a layer metric.
	selfs map[string][]float64
	// searchS and attemptS total the search and attempt spans of the
	// front process only (kbench for the CLI workloads, the coordinator
	// for kpartd-coord), the numerator and base of search.busy_ratio.
	searchS, attemptS float64
}

func newSpanAgg() *spanAgg {
	return &spanAgg{rows: make(map[string]*spanRow), selfs: make(map[string][]float64)}
}

// add folds one complete trace into the aggregate.
func (a *spanAgg) add(spans []span.Span, front string) {
	self := selfTimes(spans)
	for i := range spans {
		sp := &spans[i]
		r := a.rows[sp.Name]
		if r == nil {
			r = &spanRow{Name: sp.Name}
			a.rows[sp.Name] = r
		}
		r.Count++
		r.TotalS += sp.Dur.Seconds()
		r.SelfS += self[i].Seconds()
		switch sp.Name {
		case "rpc", "job":
			a.selfs[sp.Name] = append(a.selfs[sp.Name], self[i].Seconds())
		}
		if sp.Process == front {
			switch sp.Name {
			case "search":
				a.searchS += sp.Dur.Seconds()
			case "attempt":
				a.attemptS += sp.Dur.Seconds()
			}
		}
	}
}

// row returns the aggregate for name (zero when no such span ran).
func (a *spanAgg) row(name string) spanRow {
	if r := a.rows[name]; r != nil {
		return *r
	}
	return spanRow{Name: name}
}

// sorted lists the rows by descending self time.
func (a *spanAgg) sorted() []spanRow {
	out := make([]spanRow, 0, len(a.rows))
	for _, r := range a.rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
