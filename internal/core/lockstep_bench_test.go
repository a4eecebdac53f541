package core

// Benchmark of the lockstep warm refinement tail against the per-row
// projectWarm loop it replaces: both variants refine the same frame from
// the same warm seeds, so the delta is the refinement kernel alone.

import (
	"fmt"
	"math/rand"
	"testing"

	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// refineBenchSetup fits a model over a monotone cloud and returns the
// lockstep engine, its scalar-tail twin, the normalised rows, and warm
// seeds for them: each row's converged score nudged by an eighth of the
// grid spacing, alternating in sign, so Newton takes the few steps a fit
// iteration's small curve move asks of it while the basin check still
// holds.
func refineBenchSetup(b *testing.B, deg, dim int, n int) (lock, scalar *engine, u *frame.Frame, warm []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(97 + deg*10 + dim)))
	signs := make([]float64, dim)
	for j := range signs {
		signs[j] = 1
	}
	alpha := order.MustDirection(signs...)
	xs, _ := genBezierCloud(rng, n, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, Degree: deg, MaxIter: 10})
	if err != nil {
		b.Fatal(err)
	}
	opts := m.opts.withDefaults()
	opts.Projector = ProjectorNewton
	lock = newEngine(m.Curve, opts)
	scalar = newEngine(m.Curve, opts)
	scalar.scalarTail = true
	u = m.data
	warm = make([]float64, n)
	resid := make([]float64, n)
	lock.projectBlock(u, 0, n, warm, resid)
	nudge := 1 / (8 * float64(opts.GridCells))
	for i := range warm {
		if i%2 == 1 {
			warm[i] -= nudge
		} else {
			warm[i] += nudge
		}
		warm[i] = min(max(warm[i], 0), 1)
	}
	return lock, scalar, u, warm
}

// BenchmarkRefineTail pins the warm refinement tail itself: warm/scalar is
// the per-row projectWarm loop, warm/lockstep the SoA lane kernel
// (projectWarmBlock), over cubic (the fit's default degree) and a
// general-degree profile, at the ambient dimensions the fused seeders and
// the GEMM branch serve.
func BenchmarkRefineTail(b *testing.B) {
	const n = 4096
	for _, tc := range []struct {
		deg, dim int
	}{
		{3, 2}, {3, 3}, {3, 8}, {5, 3},
	} {
		lock, scalar, u, warm := refineBenchSetup(b, tc.deg, tc.dim, n)
		scores := make([]float64, n)
		resid := make([]float64, n)
		run := func(b *testing.B, e *engine) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.projectWarmBlock(u, 0, n, scores, resid, warm)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		}
		b.Run(fmt.Sprintf("warm/scalar/deg=%d/d=%d", tc.deg, tc.dim), func(b *testing.B) { run(b, scalar) })
		b.Run(fmt.Sprintf("warm/lockstep/deg=%d/d=%d", tc.deg, tc.dim), func(b *testing.B) { run(b, lock) })
	}
}
