package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMulABTBlockedMatchesNaive pins the blocked kernel to MulABTInto bit
// for bit across shapes that exercise every micro-kernel remainder: columns
// and rows around multiples of four, degenerate single-row/column cases,
// wide products, and long shared dimensions.
func TestMulABTBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{4, 4, 4}, {8, 8, 16}, {5, 7, 3}, {1, 1, 1}, {1, 9, 257},
		{3, 33, 3}, {4, 33, 3}, {7, 33, 4}, {64, 33, 3}, {13, 5, 100},
		{4, 5, 1}, {6, 4, 2}, {12, 3, 7},
		// n ≥ 8 with every n % 4, so several 4-wide blocks run before the
		// scalar column tail.
		{4, 8, 5}, {5, 9, 6}, {8, 10, 7}, {9, 11, 4}, {4, 12, 9},
		{7, 13, 3}, {6, 14, 8}, {4, 15, 2}, {5, 16, 11}, {8, 23, 5},
		{3, 17, 4}, {1, 25, 6}, {64, 40, 4},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(t *testing.T) {
			a := randDense(rng, m, k)
			b := randDense(rng, n, k)
			want := MulABTInto(Zeros(m, n), a, b)
			got := MulABTBlockedInto(Zeros(m, n), a, b)
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("shape %v: element %d differs: %.17g vs %.17g",
						sh, i, got.data[i], want.data[i])
				}
			}
		})
	}
}

// TestGemmABTRowStripesMatchWhole: computing C in row stripes must be
// invisible in the result at any stripe count, because each output cell
// keeps one serial accumulation chain wherever its stripe starts.
func TestGemmABTRowStripesMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n, k := 67, 19, 43
	a := randDense(rng, m, k)
	b := randDense(rng, n, k)
	want := Zeros(m, n)
	gemmABT(want.data, n, a.data, k, b.data, k, m, n, k)
	for _, stripes := range []int{1, 2, 3, 4, 16, 67} {
		got := Zeros(m, n)
		chunk := (m + stripes - 1) / stripes
		for lo := 0; lo < m; lo += chunk {
			hi := min(lo+chunk, m)
			gemmABT(got.data[lo*n:], n, a.data[lo*k:], k, b.data, k, hi-lo, n, k)
		}
		for i := range want.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("stripes=%d: element %d differs", stripes, i)
			}
		}
	}
}

// TestGemmABTStrided drives the flat kernel with row strides wider than the
// logical width.
func TestGemmABTStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n, k := 6, 5, 3
	lda, ldb, ldc := 7, 9, 11
	a := make([]float64, m*lda)
	b := make([]float64, n*ldb)
	c := make([]float64, m*ldc)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	gemmABT(c, ldc, a, lda, b, ldb, m, n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for t2 := 0; t2 < k; t2++ {
				want += a[i*lda+t2] * b[j*ldb+t2]
			}
			if c[i*ldc+j] != want {
				t.Fatalf("C[%d][%d] = %.17g, want %.17g", i, j, c[i*ldc+j], want)
			}
		}
	}
}

// TestMulABTBlockedPanics mirrors MulABTInto's contract checks.
func TestMulABTBlockedPanics(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(4, 5)
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("dim mismatch", func() { MulABTBlockedInto(Zeros(2, 4), a, b) })
	assertPanics("bad dst", func() { MulABTBlockedInto(Zeros(3, 3), a, Zeros(4, 3)) })
	assertPanics("alias", func() {
		x := Zeros(4, 4)
		MulABTBlockedInto(x, x, Zeros(4, 4))
	})
}

// BenchmarkGemmABT compares the naive and blocked A·Bᵀ on the fit loop's
// X·MZᵀ shape (d×n times (k+1)×n).
func BenchmarkGemmABT(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		name    string
		m, n, k int
	}{
		{"fit-xmzt", 4, 4, 4096},
	}
	for _, sh := range shapes {
		x := randDense(rng, sh.m, sh.k)
		y := randDense(rng, sh.n, sh.k)
		dst := Zeros(sh.m, sh.n)
		b.Run(sh.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulABTInto(dst, x, y)
			}
		})
		b.Run(sh.name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulABTBlockedInto(dst, x, y)
			}
		})
	}
}
