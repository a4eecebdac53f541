package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestZipfRanksDeterministicAndSkewed(t *testing.T) {
	a := zipfRanks(rand.New(rand.NewSource(7)), 20000, 512, 1.1)
	b := zipfRanks(rand.New(rand.NewSource(7)), 20000, 512, 1.1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different ranks")
	}
	counts := make([]int, 512)
	for _, r := range a {
		if r < 0 || r >= 512 {
			t.Fatalf("rank %d out of [0, 512)", r)
		}
		counts[r]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[300]) {
		t.Errorf("popularity not decreasing with rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[300])
	}
	// Zipf(1.1) over 512 ranks puts roughly a fifth of the traffic on rank 0.
	if share := float64(counts[0]) / float64(len(a)); share < 0.1 || share > 0.35 {
		t.Errorf("rank-0 share %.3f", share)
	}
}

func TestReuseFarShare(t *testing.T) {
	ids := []string{"a", "b", "a", "c", "b", "a"}
	// window 2: a far, b far, a near, c far (evicts b), b far (evicts a),
	// a far.
	if got := reuseFarShare(ids, 2); got != 5.0/6 {
		t.Errorf("window 2: %v, want 5/6", got)
	}
	// window 3: only the three first accesses are far.
	if got := reuseFarShare(ids, 3); got != 0.5 {
		t.Errorf("window 3: %v, want 1/2", got)
	}
	if got := reuseFarShare(nil, 3); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := poissonArrivals(rand.New(rand.NewSource(3)), 2000, 5*time.Second)
	b := poissonArrivals(rand.New(rand.NewSource(3)), 2000, 5*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 5s at 2000/s", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 5*time.Second {
		t.Error("arrivals not increasing within the window")
	}
}

func TestRowCounts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := logUniformRows(256)
	const n = 20000
	small, seen256 := 0, false
	for i := 0; i < n; i++ {
		rows := f(r, i, n)
		if rows < 1 || rows > 256 {
			t.Fatalf("row count %d out of [1, 256]", rows)
		}
		if rows <= 16 {
			small++
		}
		seen256 = seen256 || rows == 256
	}
	// log-uniform on [1, 257): sizes up to 16 take ln 17 / ln 257 ≈ 0.51.
	if share, want := float64(small)/n, math.Log(17)/math.Log(257); math.Abs(share-want) > 0.002 {
		t.Errorf("share of batches with <= 16 rows: %.3f", share)
	}
	if !seen256 {
		t.Error("the largest batch size never occurred")
	}
	u := uniformRows(1, 8)
	counts := map[int]int{}
	for i := 0; i < 512; i++ {
		counts[u(r, i, 512)]++
	}
	for size := 1; size <= 8; size++ {
		if counts[size] != 64 {
			t.Errorf("uniformRows gave %d bodies of %d rows, want 64", counts[size], size)
		}
	}
}
