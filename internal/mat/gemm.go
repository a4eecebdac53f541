package mat

import (
	"fmt"
)

// This file holds the register-blocked A·Bᵀ kernel behind the fit loop's
// X·MZᵀ product. The naive MulABTInto walks one output cell at a time, so
// every inner-product load feeds exactly one multiply; the micro-kernel
// below keeps a 4×4 accumulator block live across the shared-dimension
// loop, amortising each A and B load over four multiplies, with scalar
// blocks mopping up the column/row remainders (X·MZᵀ has n = degree+1 ≤ 7
// columns). Every output cell is still one serial accumulation chain over
// the shared dimension, in index order — so the blocked kernel is
// bit-identical to MulABTInto at every width, and computing C in row
// stripes cannot change a single bit either (stripes own disjoint output
// rows).

// gemmABT computes C = A·Bᵀ over flat row-major storage: A is m×k with row
// stride lda, B is n×k with row stride ldb, and C is m×n with row stride
// ldc. C must not alias A or B (not checked at this level). Bit-identical
// to the naive triple loop.
func gemmABT(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*lda : (i+0)*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		a2 := a[(i+2)*lda : (i+2)*lda+k]
		a3 := a[(i+3)*lda : (i+3)*lda+k]
		c0 := c[(i+0)*ldc : (i+0)*ldc+n]
		c1 := c[(i+1)*ldc : (i+1)*ldc+n]
		c2 := c[(i+2)*ldc : (i+2)*ldc+n]
		c3 := c[(i+3)*ldc : (i+3)*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			var s20, s21, s22, s23 float64
			var s30, s31, s32, s33 float64
			for t := 0; t < k; t++ {
				av0, av1, av2, av3 := a0[t], a1[t], a2[t], a3[t]
				bv0, bv1, bv2, bv3 := b0[t], b1[t], b2[t], b3[t]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
				s20 += av2 * bv0
				s21 += av2 * bv1
				s22 += av2 * bv2
				s23 += av2 * bv3
				s30 += av3 * bv0
				s31 += av3 * bv1
				s32 += av3 * bv2
				s33 += av3 * bv3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
			c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
		}
		for ; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			var s0, s1, s2, s3 float64
			for t, bv := range bj {
				s0 += a0[t] * bv
				s1 += a1[t] * bv
				s2 += a2[t] * bv
				s3 += a3[t] * bv
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*ldb : (j+0)*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var s0, s1, s2, s3 float64
			for t, av := range ai {
				s0 += av * b0[t]
				s1 += av * b1[t]
				s2 += av * b2[t]
				s3 += av * b3[t]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			var s float64
			for t, av := range ai {
				s += av * bj[t]
			}
			ci[j] = s
		}
	}
}

// MulABTBlockedInto computes dst = a·bᵀ through the register-blocked kernel.
// Same shape and aliasing contract as MulABTInto, to which it is
// bit-identical (pinned by test); iterative callers with a long shared
// dimension — the fit loop's X·MZᵀ — should prefer it.
func MulABTBlockedInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABTBlockedInto dimension mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulABTBlockedInto destination %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		panic("mat: MulABTBlockedInto destination aliases an operand")
	}
	gemmABT(dst.data, dst.cols, a.data, a.cols, b.data, b.cols, a.rows, b.rows, a.cols)
	return dst
}
