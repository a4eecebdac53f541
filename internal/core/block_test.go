package core

// Tests of the range projection paths — engine.projectBlock (the fit's cold
// passes) and Scorer.ScoreFrameRange (batch serving): exact edge-projection
// and bracket-miss rows, range-boundary independence, bit-identity of batch
// scores with per-row Score, the cancellation cadence, and the fit-level
// cold parity contract.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// rawFrame maps a frame of normalised rows back to m's raw data space, so
// the serving path (which normalises internally) sees the same points the
// engine path projects directly.
func rawFrame(m *Model, u *frame.Frame) *frame.Frame {
	raw := frame.New(u.N(), u.Dim())
	for i := 0; i < u.N(); i++ {
		copy(raw.Row(i), m.Norm.Invert(u.Row(i)))
	}
	return raw
}

// checkEdgeRows projects u through eng.projectBlock with residuals and
// through m's scorer (ScoreFrameRange over the same rows in raw space), and
// demands that every row in zeros scores exactly 0 and every row in ones
// exactly 1 on both paths. These are bracket-miss rows: the grid node
// itself is published, so any seeding or classification error shows here
// instead of being polished away by Newton. On the engine path each edge
// row's residual must be the squared distance to the curve end it hit.
func checkEdgeRows(t *testing.T, m *Model, eng *engine, u *frame.Frame, zeros, ones []int) {
	t.Helper()
	n := u.N()
	ends := [2][]float64{m.Curve.Eval(0), m.Curve.Eval(1)}
	t.Run("engine", func(t *testing.T) {
		scores := make([]float64, n)
		resid := make([]float64, n)
		eng.projectBlock(u, 0, n, scores, resid)
		for end, rows := range [2][]int{zeros, ones} {
			for _, i := range rows {
				if scores[i] != float64(end) {
					t.Fatalf("row %d scored %.17g, want exactly %d", i, scores[i], end)
				}
				var want float64
				for j, v := range u.Row(i) {
					want += (v - ends[end][j]) * (v - ends[end][j])
				}
				if math.Abs(resid[i]-want) > 1e-9*(1+want) {
					t.Fatalf("row %d: residual %.17g, want %.17g", i, resid[i], want)
				}
			}
		}
	})
	t.Run("frame", func(t *testing.T) {
		scores := make([]float64, n)
		m.Compile().ScoreFrameRange(scores, rawFrame(m, u), 0, n)
		for end, rows := range [2][]int{zeros, ones} {
			for _, i := range rows {
				if scores[i] != float64(end) {
					t.Fatalf("row %d scored %.17g, want exactly %d", i, scores[i], end)
				}
			}
		}
	})
}

// TestProjectBlockEdgeRows pins the classification-fail behaviour: rows far
// past the curve's end points project onto the domain edges s=0/1, where
// the grid node itself is published (no bracket refinement).
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
		// slope down on its left edge, classification misses, and the node
		// s=0 is published *exactly* (symmetrically s=1 at the far end). The
		// remaining rows probe corners and the interior.
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
		checkEdgeRows(t, m, eng, ef, []int{0, 2}, []int{1, 3})
	})

	t.Run("interleaved", func(t *testing.T) {
		// The same contract on a random monotone cubic, with edge rows
		// interleaved among interior rows across a cancellation-block
		// boundary: every third row sits outward along the start tangent,
		// every third along the end tangent, so bracket misses sit next to
		// rows that refine.
		pm := randParityModel(rng, 3, 3, ProjectorNewton)
		pd := pm.Dim()
		p0, p1 := pm.Curve.Eval(0), pm.Curve.Eval(1)
		pder := pm.Curve.Derivative()
		q0, q1 := pder.Eval(0), pder.Eval(1)
		const n = projBlockRows + 2
		mf := frame.New(n, pd)
		var zeros, ones []int
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				zeros = append(zeros, i)
			case 1:
				ones = append(ones, i)
			}
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
		checkEdgeRows(t, pm, newEngine(pm.Curve, pm.opts), mf, zeros, ones)
	})
}

// TestProjectBlockBoundarySizes: a range projected inside a larger frame
// must equal the same rows projected alone, at every range start and length
// around the block size — every row is projected independently, so range
// boundaries cannot leak into results.
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
	for _, lo := range []int{0, 17, projBlockRows} {
		for _, size := range []int{1, projBlockRows - 1, projBlockRows, projBlockRows + 5} {
			hi := lo + size
			t.Run(fmt.Sprintf("lo=%d/n=%d", lo, size), func(t *testing.T) {
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
			})
		}
	}
}

// TestScoreFrameRangeBitIdenticalToScore: batch scoring runs every row
// through Scorer.Score, so a batch's scores equal per-row scores bit for
// bit — across degrees (the cubic fused path and the general engine),
// dimensions 1 to 8, and frame sizes around the cancellation block, with
// the frame spanning [-0.3, 1.3] per normalised coordinate so bracket-miss
// rows landing exactly on s=0/1 are part of every shape.
func TestScoreFrameRangeBitIdenticalToScore(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, deg := range []int{2, 3, 5} {
		for _, dim := range []int{1, 2, 3, 8} {
			for _, n := range []int{64, 65, 71} {
				t.Run(fmt.Sprintf("deg=%d/d=%d/n=%d", deg, dim, n), func(t *testing.T) {
					m := randParityModel(rng, deg, dim, ProjectorNewton)
					raw := rawFrame(m, lockstepFrame(rng, n, dim))
					batch := m.Compile().ScoreFrame(nil, raw)
					sc := m.Compile()
					edges := 0
					for i := 0; i < n; i++ {
						s := sc.Score(raw.Row(i))
						if math.Float64bits(batch[i]) != math.Float64bits(s) {
							t.Fatalf("row %d: batch %.17g vs Score %.17g", i, batch[i], s)
						}
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

// countdownCtx reports Canceled from the (after+1)-th Err call on, so a
// test can tell exactly which poll observed the cancellation.
type countdownCtx struct {
	context.Context
	after int
	polls int
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestScoreFrameRangeCtxPollCadence pins the cancellation contract: the
// context is polled before the first row and then once every
// projBlockRows rows, the return value counts the rows scored, and rows
// past a cancellation are left untouched.
func TestScoreFrameRangeCtxPollCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	m := randParityModel(rng, 3, 3, ProjectorNewton)
	const lo, hi = 5, 5 + 3*projBlockRows + 7
	raw := rawFrame(m, lockstepFrame(rng, hi, 3))
	sc := m.Compile()
	for _, after := range []int{0, 1, 3, 4} {
		t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
			dst := make([]float64, hi)
			for i := range dst {
				dst[i] = -1
			}
			ctx := &countdownCtx{Context: context.Background(), after: after}
			got := sc.ScoreFrameRangeCtx(ctx, dst, raw, lo, hi)
			want := min(after*projBlockRows, hi-lo)
			if got != want {
				t.Fatalf("scored %d rows, want %d", got, want)
			}
			for i := range dst {
				scored := i >= lo && i < lo+want
				if scored && dst[i] != sc.Score(raw.Row(i)) {
					t.Fatalf("row %d: %.17g vs Score %.17g", i, dst[i], sc.Score(raw.Row(i)))
				}
				if !scored && dst[i] != -1 {
					t.Fatalf("row %d outside the scored range was written", i)
				}
			}
		})
	}
}

// TestScoreFrameRangeMatchesScore pins the serving batch path to per-row
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
// the cold pass) must agree with the same fit projected
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

// BenchmarkProjectCold measures one cold score step over a 4096-row d=3
// frame through engine.projectBlock — the per-row grid scan plus Newton
// refinement that the fit's cold passes run. The engine runs the Newton
// strategy, the configuration serving compiles to.
func BenchmarkProjectCold(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.projectBlock(m.data, 0, n, scores, resid)
	}
}
