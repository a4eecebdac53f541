package core

// Parity test for the SoA lockstep warm refinement tail: the batched
// safeguarded-Newton drain must publish scores and residuals BIT-IDENTICAL
// to the one-row-at-a-time projectWarm loop it replaces — lanes never
// interact arithmetically, so the contract is exact equality, not a
// tolerance. The scalar reference runs through the same engine with the
// scalarTail knob set, which keeps the per-row basin classification and
// only swaps the refinement loop.

import (
	"fmt"
	"math/rand"
	"testing"

	"rpcrank/internal/frame"
)

// lockstepFrame builds n rows in normalised space spanning [-0.3, 1.3] per
// coordinate, so the batch holds interior basins, near-edge brackets, and
// bracket-miss rows that publish a grid node exactly.
func lockstepFrame(rng *rand.Rand, n, dim int) *frame.Frame {
	u := frame.New(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			u.Set(i, j, rng.Float64()*1.6-0.3)
		}
	}
	return u
}

// lockstepEnginePair builds the lockstep engine and its scalar-tail
// reference from one model — same curve, same compiled profile settings.
func lockstepEnginePair(m *Model) (lock, scalar *engine) {
	lock = newEngine(m.Curve, m.opts)
	scalar = newEngine(m.Curve, m.opts)
	scalar.scalarTail = true
	return lock, scalar
}

// TestLockstepWarmMatchesScalarTail: the warm-started block path (fit
// refinement sweeps) vs the per-row projectWarm loop — exact score and
// residual equality plus identical warm-hit telemetry, across every
// grid-seeded projector (warm refinement is one lane kernel for all of
// them), both from honest warm seeds and from adversarial ones that force
// the no-regression guard into its cold fallback.
func TestLockstepWarmMatchesScalarTail(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	projs := []struct {
		name string
		proj Projector
	}{
		{"newton", ProjectorNewton},
		{"gss", ProjectorGSS},
		{"brent", ProjectorBrent},
	}
	for _, pc := range projs {
		for _, deg := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/deg=%d", pc.name, deg), func(t *testing.T) {
				const dim, n = 3, 71
				m := randParityModel(rng, deg, dim, pc.proj)
				u := lockstepFrame(rng, n, dim)
				lock, scalar := lockstepEnginePair(m)

				// Honest warm seeds: the previous sweep's own scores.
				warm := make([]float64, n)
				tmp := make([]float64, n)
				lock.projectBlock(u, 0, n, warm, tmp)
				for pass := 0; pass < 2; pass++ {
					if pass == 1 {
						// Adversarial seeds: the mirrored score is usually in
						// the wrong basin, driving classification failures and
						// guarded cold fallbacks through both paths.
						for i := range warm {
							warm[i] = 1 - warm[i]
						}
					}
					ls, lr := make([]float64, n), make([]float64, n)
					ss, sr := make([]float64, n), make([]float64, n)
					lock.warmRows, lock.warmHits = 0, 0
					scalar.warmRows, scalar.warmHits = 0, 0
					lock.projectWarmBlock(u, 0, n, ls, lr, warm)
					scalar.projectWarmBlock(u, 0, n, ss, sr, warm)
					for i := 0; i < n; i++ {
						if ls[i] != ss[i] {
							t.Fatalf("pass %d row %d: lockstep warm score %.17g, scalar %.17g", pass, i, ls[i], ss[i])
						}
						if lr[i] != sr[i] {
							t.Fatalf("pass %d row %d: lockstep warm resid %.17g, scalar %.17g", pass, i, lr[i], sr[i])
						}
					}
					if lock.warmRows != scalar.warmRows || lock.warmHits != scalar.warmHits {
						t.Fatalf("pass %d: lockstep telemetry %d/%d, scalar %d/%d",
							pass, lock.warmHits, lock.warmRows, scalar.warmHits, scalar.warmRows)
					}
					if pass == 0 && lock.warmHits == 0 {
						t.Fatal("honest warm seeds produced no warm hits")
					}
				}
			})
		}
	}
}
