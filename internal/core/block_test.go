package core

// Tests of the block-batched projection seeder: batch-vs-per-row score
// parity over monotone curves (the engine contract convention), explicit
// edge-projection and bracket-miss rows, block-boundary sizes, and the
// behavioural invariants the block path must not disturb (NoWarmStart,
// projector kinds, fit determinism).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// blockParityCheck projects every frame row through the per-row engine path
// and the block path and asserts ≤1e-12 agreement on scores and residuals
// (the compiled-engine contract tolerance; in practice the paths are
// bit-identical unless two grid nodes tie at rounding level).
func blockParityCheck(t *testing.T, eng *engine, u *frame.Frame) {
	t.Helper()
	n := u.N()
	perRow := newEngineLike(eng)
	scores := make([]float64, n)
	resid := make([]float64, n)
	eng.projectBlock(u, 0, n, scores, resid)
	for i := 0; i < n; i++ {
		s, d := perRow.project(u.Row(i))
		if math.Abs(scores[i]-s) > 1e-12 {
			t.Fatalf("row %d: block score %.17g vs per-row %.17g", i, scores[i], s)
		}
		if math.Abs(resid[i]-d) > 1e-12*(1+d) {
			t.Fatalf("row %d: block resid %.17g vs per-row %.17g", i, resid[i], d)
		}
	}
}

// newEngineLike clones an engine's configuration onto a fresh engine (own
// Compiled), so the per-row reference cannot share block state by accident.
func newEngineLike(e *engine) *engine {
	return newEngine(e.curve, Options{
		Projector: e.kind, GridCells: e.cells, ProjTol: e.tol,
	}.withDefaults())
}

// TestProjectBlockMatchesPerRow is the batch-vs-per-row parity property
// test over monotone curves, across projector kinds and degrees.
func TestProjectBlockMatchesPerRow(t *testing.T) {
	cases := []struct {
		name string
		proj Projector
		deg  int
		dim  int
		seed int64
	}{
		{"newton-cubic-d3", ProjectorNewton, 3, 3, 101},
		{"newton-cubic-d2", ProjectorNewton, 3, 2, 102},
		{"newton-cubic-d4", ProjectorNewton, 3, 4, 103},
		{"newton-cubic-d7", ProjectorNewton, 3, 7, 104}, // generic GEMM path
		{"gss-cubic", ProjectorGSS, 3, 3, 105},
		{"brent-cubic", ProjectorBrent, 3, 3, 106},
		{"newton-deg5", ProjectorNewton, 5, 3, 107},
		{"gss-deg2", ProjectorGSS, 2, 4, 108},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			signs := make([]float64, tc.dim)
			for j := range signs {
				signs[j] = 1
				if rng.Intn(2) == 0 {
					signs[j] = -1
				}
			}
			alpha := order.MustDirection(signs...)
			xs, _ := genBezierCloud(rng, 257, alpha, 0.05)
			m, err := Fit(xs, Options{Alpha: alpha, Projector: tc.proj, Degree: tc.deg, MaxIter: 15})
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(m.Curve, m.opts.withDefaults())
			blockParityCheck(t, eng, m.data)
		})
	}
}

// TestProjectBlockEdgeRows pins the classification-fail behaviour: rows far
// past the curve's end points project onto the domain edges s=0/1, where
// the per-row path publishes the grid node itself (no bracket refinement).
// The block path must land on exactly the same nodes — these rows are the
// ones where a seeding disagreement would not be polished away by Newton.
func TestProjectBlockEdgeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	t.Run("fitted", func(t *testing.T) {
		alpha := order.MustDirection(1, 1, -1)
		xs, _ := genBezierCloud(rng, 64, alpha, 0.02)
		m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 10})
		if err != nil {
			t.Fatal(err)
		}
		d := m.Dim()
		// Rows x = f(0) − c·f′(0) sit outward along the start tangent, so
		// D′(0) = 2c‖f′(0)‖² > 0: the grid best is node 0, the bracket cannot
		// slope down on its left edge, classification misses, and the per-row
		// path publishes the grid node s=0 *exactly* (symmetrically s=1 at the
		// far end). These are the rows where a block-seeding disagreement could
		// not be polished away by Newton, so the assertions below demand the
		// exact edge values. The remaining rows probe corners and the interior
		// for parity only.
		f0 := m.Curve.Eval(0)
		f1 := m.Curve.Eval(1)
		der := m.Curve.Derivative()
		t0 := der.Eval(0)
		t1 := der.Eval(1)
		ef := frame.New(8, d)
		for j := 0; j < d; j++ {
			lo, hi := 0.0, 1.0
			if m.Alpha[j] < 0 {
				lo, hi = 1, 0
			}
			ef.Set(0, j, f0[j]-2*t0[j])    // far out along the start tangent → s=0
			ef.Set(1, j, f1[j]+2*t1[j])    // far out along the end tangent → s=1
			ef.Set(2, j, f0[j]-1e-9*t0[j]) // infinitesimally outside the start
			ef.Set(3, j, f1[j]+1e-9*t1[j]) // infinitesimally outside the end
			ef.Set(4, j, lo)               // exact worst corner
			ef.Set(5, j, hi)               // exact best corner
			ef.Set(6, j, 0.5)              // centre (interior basin)
			ef.Set(7, j, lo-3)             // far past the worst corner
		}
		eng := newEngine(m.Curve, m.opts.withDefaults())
		blockParityCheck(t, eng, ef)

		scores := make([]float64, ef.N())
		resid := make([]float64, ef.N())
		eng.projectBlock(ef, 0, ef.N(), scores, resid)
		if scores[0] != 0 || scores[2] != 0 {
			t.Fatalf("start-tangent rows scored %v / %v, want exactly 0", scores[0], scores[2])
		}
		if scores[1] != 1 || scores[3] != 1 {
			t.Fatalf("end-tangent rows scored %v / %v, want exactly 1", scores[1], scores[3])
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		// The same contract on a random monotone cubic, with edge rows
		// interleaved among interior rows across a block boundary: every third
		// row sits outward along the start tangent, every third along the end
		// tangent, so bracket misses land in both blocks and next to rows that
		// refine.
		pm := randParityModel(rng, 3, 3, ProjectorNewton)
		pd := pm.Dim()
		p0, p1 := pm.Curve.Eval(0), pm.Curve.Eval(1)
		pder := pm.Curve.Derivative()
		q0, q1 := pder.Eval(0), pder.Eval(1)
		const n = projBlockRows + 2
		mf := frame.New(n, pd)
		for i := 0; i < n; i++ {
			for j := 0; j < pd; j++ {
				switch i % 3 {
				case 0:
					mf.Set(i, j, p0[j]-2*q0[j])
				case 1:
					mf.Set(i, j, p1[j]+2*q1[j])
				default:
					mf.Set(i, j, rng.Float64())
				}
			}
		}
		peng := newEngine(pm.Curve, pm.opts)
		blockParityCheck(t, peng, mf)
		ms := make([]float64, n)
		mr := make([]float64, n)
		peng.projectBlock(mf, 0, n, ms, mr)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				if ms[i] != 0 {
					t.Fatalf("interleaved row %d: start-tangent row scored %.17g, want exactly 0", i, ms[i])
				}
			case 1:
				if ms[i] != 1 {
					t.Fatalf("interleaved row %d: end-tangent row scored %.17g, want exactly 1", i, ms[i])
				}
			}
		}
	})
}

// TestProjectBlockColdShapes: the cold block path (grid-table seeding,
// bracket classification, per-row refinement) vs the per-row engine on
// random monotone curves — cubic Newton and the general-degree refinement,
// the fused d=2/3 seeders and the generic GEMM seeder at d=8, and row
// counts n ∈ {64, 65, 71} around the block size. The frame spans
// [-0.3, 1.3] per coordinate, so every shape also publishes bracket-miss
// rows exactly on s=0/1.
func TestProjectBlockColdShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, deg := range []int{2, 3, 5} {
		for _, dim := range []int{2, 3, 8} {
			for _, n := range []int{64, 65, 71} {
				t.Run(fmt.Sprintf("deg=%d/d=%d/n=%d", deg, dim, n), func(t *testing.T) {
					m := randParityModel(rng, deg, dim, ProjectorNewton)
					u := lockstepFrame(rng, n, dim)
					eng := newEngine(m.Curve, m.opts)
					blockParityCheck(t, eng, u)
					scores := make([]float64, n)
					resid := make([]float64, n)
					eng.projectBlock(u, 0, n, scores, resid)
					edges := 0
					for _, s := range scores {
						if s == 0 || s == 1 {
							edges++
						}
					}
					if edges == 0 {
						t.Fatal("no bracket-miss rows landed exactly on s=0/1; widen the frame margin")
					}
				})
			}
		}
	}
}

// TestProjectBlockBoundarySizes sweeps row counts around the block size so
// every remainder shape of the batched kernels runs: n % block ∈ {0, 1,
// block−1}, plus the 4-row micro-kernel remainders inside a block.
func TestProjectBlockBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alpha := order.MustDirection(1, -1, 1)
	xs, _ := genBezierCloud(rng, 3*projBlockRows, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := m.data
	eng := newEngine(m.Curve, m.opts.withDefaults())
	for _, n := range []int{
		projBlockRows, 2 * projBlockRows, // n % block == 0
		1, projBlockRows + 1, // n % block == 1
		projBlockRows - 1, 2*projBlockRows - 1, // n % block == block−1
		2, 3, 4, 5, 6, 7, // micro-kernel remainders
	} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			blockParityCheck(t, eng, full.Slice(0, n))
		})
	}
	// A mid-frame range must agree with the same rows scored alone: the
	// per-row chains are position-independent, so stripe boundaries cannot
	// leak into results.
	lo, hi := 17, 17+projBlockRows+5
	whole := make([]float64, full.N())
	wresid := make([]float64, full.N())
	eng.projectBlock(full, lo, hi, whole, wresid)
	sub := full.Slice(lo, hi)
	alone := make([]float64, sub.N())
	aresid := make([]float64, sub.N())
	eng.projectBlock(sub, 0, sub.N(), alone, aresid)
	for i := 0; i < sub.N(); i++ {
		if whole[lo+i] != alone[i] || wresid[lo+i] != aresid[i] {
			t.Fatalf("range row %d differs from standalone projection", lo+i)
		}
	}
}

// TestScoreFrameRangeMatchesScore pins the serving block path to per-row
// Scorer.Score on raw (unnormalised) rows, including the non-cubic engine
// and the quintic fallback.
func TestScoreFrameRangeMatchesScore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cubic", Options{}},
		{"deg4", Options{Degree: 4}},
		{"quintic", Options{Projector: ProjectorQuintic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			alpha := order.MustDirection(1, 1, -1)
			xs, _ := genBezierCloud(rng, 300, alpha, 0.04)
			opts := tc.opts
			opts.Alpha = alpha
			m, err := Fit(xs, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Raw-space probes, including points outside the training box.
			probes := make([][]float64, 2*projBlockRows+3)
			for i := range probes {
				p := make([]float64, len(alpha))
				for j := range p {
					p[j] = 3 * (rng.Float64() - 0.2)
				}
				probes[i] = p
			}
			f, err := frame.FromRows(probes)
			if err != nil {
				t.Fatal(err)
			}
			sc := m.Compile()
			batch := make([]float64, f.N())
			sc.ScoreFrameRange(batch, f, 0, f.N())
			ref := m.Compile()
			for i, p := range probes {
				if s := ref.Score(p); math.Abs(batch[i]-s) > 1e-12 {
					t.Fatalf("probe %d: batch %.17g vs Score %.17g", i, batch[i], s)
				}
			}
		})
	}
}

// TestFitColdBlockMatchesReference: a NoWarmStart fit (every iteration runs
// the block-batched cold pass) must agree with the same fit projected
// through the one-shot per-row reference loop — the fit-level form of the
// parity contract. Uses score agreement of the published model against
// scoreReference, the uncompiled projector.
func TestFitColdBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _ := genBezierCloud(rng, 200, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if s := scoreReference(m, x); math.Abs(m.Scores[i]-s) > 1e-12 {
			t.Fatalf("row %d: published %.17g vs reference %.17g", i, m.Scores[i], s)
		}
	}
}

// TestStageProfilingToggle smoke-tests the pprof stage labels: enabling the
// toggle must not change results, and the block path must run with it on.
func TestStageProfilingToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	alpha := order.MustDirection(1, -1)
	xs, _ := genBezierCloud(rng, 2*projBlockRows, alpha, 0.03)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(m.Curve, m.opts.withDefaults())
	n := m.data.N()
	off := make([]float64, n)
	resid := make([]float64, n)
	eng.projectBlock(m.data, 0, n, off, resid)
	EnableStageProfiling(true)
	defer EnableStageProfiling(false)
	if !StageProfilingEnabled() {
		t.Fatal("toggle did not latch")
	}
	on := make([]float64, n)
	eng.projectBlock(m.data, 0, n, on, resid)
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("row %d: score changed under stage profiling", i)
		}
	}
}

// BenchmarkProjectBlock measures one cold score step over a 4096-row frame
// through the per-row engine loop and through the block-batched seeder —
// the per-iteration delta the grid-table seeding buys the fit's cold
// passes and (via ScoreFrameRange) the serving batch path. The engine runs
// the Newton strategy, the configuration serving compiles to and the one
// where the grid seed is the dominant per-row cost.
func BenchmarkProjectBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 4096, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 8})
	if err != nil {
		b.Fatal(err)
	}
	opts := m.opts.withDefaults()
	opts.Projector = ProjectorNewton
	eng := newEngine(m.Curve, opts)
	n := m.data.N()
	scores := make([]float64, n)
	resid := make([]float64, n)
	b.Run("perrow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				scores[r], resid[r] = eng.project(m.data.Row(r))
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.projectBlock(m.data, 0, n, scores, resid)
		}
	})
}
