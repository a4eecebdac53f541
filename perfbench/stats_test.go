package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only with at least ten samples beyond it: a
// p99 needs 1000 samples, a p50 needs 20.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{2000, 0.99, 1980, true},
		{21, 0.5, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("empty sample supported a median")
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	lat := make([]float64, 990)
	for i := range lat {
		lat[i] = 1
	}
	s := summarize(lat, 10)
	if s.n != 1000 || !s.p99OK || s.p99 != 1 {
		t.Fatalf("990 ok + 10 failed: %+v, want p99 1 supported", s)
	}
	s = summarize(lat, 11)
	if !math.IsInf(s.p99, 1) {
		t.Fatalf("990 ok + 11 failed: p99 %v, want +Inf (a failure misses the limit)", s.p99)
	}
}

func TestChunkedP99(t *testing.T) {
	if _, _, ok := chunkedP99(seq(999)); ok {
		t.Fatal("999 samples made a chunk")
	}
	// Two chunks of 1000: p99s 990 and 1990; the lower middle is reported.
	p99, k, ok := chunkedP99(seq(2000))
	if !ok || k != 2 || p99 != 990 {
		t.Fatalf("chunkedP99(2000) = %v, %d, %v; want 990, 2, true", p99, k, ok)
	}
	// One long stall inside one chunk moves only that chunk's p99.
	lat := make([]float64, 5000)
	for i := range lat {
		lat[i] = 0.3
	}
	for i := 100; i < 200; i++ {
		lat[i] = 50
	}
	p99, k, _ = chunkedP99(lat)
	if k != 5 || p99 != 0.3 {
		t.Fatalf("stall in one chunk: p99 %v over %d chunks, want 0.3 over 5", p99, k)
	}
	if p, _ := quantile(sortedCopy(lat), 0.99); p != 50 {
		t.Fatalf("pooled p99 %v, want the stall's 50", p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median of even count = %v, want the lower middle 2", m)
	}
}
