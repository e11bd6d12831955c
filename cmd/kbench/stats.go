package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// stat is one metric of one run: the median of its samples, their
// quartiles and the sample count. A metric that is one number per run
// (a count, a mean over jobs) has n samples of which all are equal.
type stat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize reduces samples to a stat. The quartiles use the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// spreads kbench prints match the ones the benchmark contract computes.
func summarize(name, unit string, xs []float64) stat {
	s := stat{Name: name, Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	s.Median = quantile(ys, 0.5)
	s.P25 = quantile(ys, 0.25)
	s.P75 = quantile(ys, 0.75)
	return s
}

// single is a stat for a metric measured once over n operations.
func single(name, unit string, v float64, n int) stat {
	return stat{Name: name, Unit: unit, Median: v, P25: v, P75: v, N: n}
}

// quantile interpolates the p-quantile of sorted ys at position
// p·(n+1), clamped to the ends (the exclusive method).
func quantile(ys []float64, p float64) float64 {
	n := len(ys)
	if n == 1 {
		return ys[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return ys[0]
	case j >= n:
		return ys[n-1]
	}
	frac := pos - float64(j)
	return ys[j-1] + frac*(ys[j]-ys[j-1])
}

// nearestRank is the p-quantile of sorted ys by the nearest-rank rule:
// the smallest sample with at least a share p of the samples at or
// below it. With fewer than 1/(1-p) samples it is the maximum.
func nearestRank(ys []float64, p float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	ys = append([]float64(nil), ys...)
	sort.Float64s(ys)
	i := int(math.Ceil(p*float64(len(ys)))) - 1
	if i < 0 {
		i = 0
	}
	return ys[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return quantile(ys, 0.5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
