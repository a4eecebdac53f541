package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile returns the q-th quantile of sorted by the nearest-rank rule
// and whether the sample supports it: at least minBeyond samples must lie
// strictly beyond the chosen rank. The median (q = 0.5) of any non-empty
// sample is supported only when it too has minBeyond samples beyond it, so
// callers that want a plain median of a handful of values use median.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// median is the nearest-rank median of xs (the lower middle for an even
// count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// sortedCopy returns xs in ascending order without modifying it.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is the exact-sample latency report of one phase: p50 and
// p99 over every attempt, where an attempt that failed counts as +Inf (it
// missed any latency limit), plus the sample count behind them.
type latencySummary struct {
	n        int
	p50, p99 float64
	p99OK    bool
}

// summarize sorts the latencies (in ms) and reads p50 and p99 off the exact
// samples. failed attempts enter as +Inf.
func summarize(latMs []float64, failed int) latencySummary {
	s := make([]float64, 0, len(latMs)+failed)
	s = append(s, latMs...)
	for i := 0; i < failed; i++ {
		s = append(s, math.Inf(1))
	}
	sort.Float64s(s)
	p50, _ := quantile(s, 0.5)
	p99, ok := quantile(s, 0.99)
	return latencySummary{n: len(s), p50: p50, p99: p99, p99OK: ok}
}

// A tail percentile that a single long scheduling stall can move is
// reported as the median over consecutive chunks of the samples of each
// chunk's exact p99. Every chunk holds at least chunkMin samples, so each
// p99 has ten samples beyond it.
const (
	chunkMin  = 1000
	maxChunks = 10
)

// chunkedP99 returns the median of the chunk p99s of lat (in arrival
// order) and the number of chunks; ok is false when lat is too short for
// one chunk.
func chunkedP99(lat []float64) (p99 float64, chunks int, ok bool) {
	k := min(maxChunks, len(lat)/chunkMin)
	if k == 0 {
		return 0, 0, false
	}
	ps := make([]float64, k)
	for c := range ps {
		ps[c], _ = quantile(sortedCopy(lat[c*len(lat)/k:(c+1)*len(lat)/k]), 0.99)
	}
	return median(ps), k, true
}
