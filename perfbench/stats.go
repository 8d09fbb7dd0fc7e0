package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It sorts a copy, so xs keeps its order. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest of the candidate percentiles that
// leaves at least minBeyond samples strictly above its rank in a sample
// of n, or 0 when none does (the sample is too small for a tail).
func tailPercentile(n, minBeyond int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond && p > best {
			best = p
		}
	}
	return best
}

// cpuTime returns the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedPhase brackets a workload's timed operations: wall clock, process
// CPU time, and heap allocation/GC deltas.
type timedPhase struct {
	wall0 time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
}

func beginTimed() *timedPhase {
	t := &timedPhase{}
	runtime.ReadMemStats(&t.ms0)
	t.cpu0 = cpuTime()
	t.wall0 = time.Now()
	return t
}

// end stores the phase's deltas into p.
func (t *timedPhase) end(p *passResult) {
	p.wall = time.Since(t.wall0)
	p.cpu = cpuTime() - t.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.allocKB = float64(ms1.TotalAlloc-t.ms0.TotalAlloc) / 1024
	p.gcCycles = float64(ms1.NumGC - t.ms0.NumGC)
}

// stopwatch sums the wall time of the stretches between start and stop,
// so a set-up can leave out the benchmark's own input generation.
type stopwatch struct {
	sum time.Duration
	t0  time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.sum += time.Since(s.t0) }
