package core

import (
	"context"

	"rpcrank/internal/frame"
)

// Scorer is the compiled serving form of a fitted Model: the curve's
// distance profile precomputed into Horner-evaluated polynomial
// coefficients, plus reusable scratch, so scoring one observation performs
// zero heap allocations (GSS/Brent/Newton-projector models; the quintic
// strategy's exact root solver allocates). Obtain one with Model.Compile.
//
// A Scorer is NOT safe for concurrent use — it owns scratch buffers. Hand
// each goroutine its own via Clone, which shares the immutable compiled
// coefficients and costs only the scratch.
//
// Scores agree with the uncompiled reference projection to within 1e-12
// (typically far closer): both refine the projection to the same stationary
// point of the same profile, evaluated through different but equivalent
// arithmetic.
// Models fitted with ProjectorGSS or ProjectorBrent are served through the
// ProjectorNewton strategy, which converges to the same minimiser in far
// fewer profile evaluations; quintic models keep their exact solver. The
// agreement contract covers componentwise-monotone curves — everything Fit
// can produce (Proposition 1) — and is enforced by the compile parity
// property test; for a hand-assembled curve that bends back on itself, a
// coarse-grid bracket can hold two local minima and the refinement
// strategies may legitimately settle on different ones.
type Scorer struct {
	model *Model
	eng   *engine
	u     []float64

	// Cubic fast-path data: the curve's centre-shifted coefficients plus
	// the normaliser's offsets and precomputed inverse ranges, so one pass
	// over the row collapses its distance profile straight into registers.
	// Multiplying by the inverse range instead of dividing perturbs the
	// normalised coordinate by at most one ulp, far inside the 1e-12
	// agreement contract.
	fastCubic bool
	smono     []float64 // flat, stride 4 (from bezier.Compiled.ShiftedMono)
	snorm     []float64 // len 7 (from bezier.Compiled.ShiftedNormSq)
	mn, inv   []float64
}

// Compile builds the zero-allocation scorer for m. It is cheap — O(d·k²)
// — so per-request compilation is fine; per-row compilation defeats the
// point. The Scorer references m's curve and normaliser; mutating the
// model afterwards (refitting in place) invalidates it.
func (m *Model) Compile() *Scorer {
	opts := m.opts
	if opts.GridCells == 0 {
		// Hand-assembled models (tests, direct struct literals) never went
		// through Fit or Load; give them the standard projector settings.
		opts = opts.withDefaults()
	}
	if opts.Projector != ProjectorQuintic {
		opts.Projector = ProjectorNewton
	}
	sc := &Scorer{
		model: m,
		eng:   newEngine(m.Curve, opts),
		u:     make([]float64, m.Curve.Dim()),
	}
	sc.initFastPath()
	return sc
}

func (sc *Scorer) initFastPath() {
	e := sc.eng
	if e.kind != ProjectorNewton || e.comp.Degree() != 3 {
		return
	}
	d := e.comp.Dim()
	sc.fastCubic = true
	sc.smono = e.comp.ShiftedMono()
	sc.snorm = e.comp.ShiftedNormSq()
	sc.mn = sc.model.Norm.Min
	sc.inv = make([]float64, d)
	for j := 0; j < d; j++ {
		sc.inv[j] = 1 / (sc.model.Norm.Max[j] - sc.model.Norm.Min[j])
	}
}

// Clone returns an independent Scorer for use by another goroutine,
// sharing the compiled coefficients.
func (sc *Scorer) Clone() *Scorer {
	c := &Scorer{
		model: sc.model,
		eng:   sc.eng.clone(),
		u:     make([]float64, len(sc.u)),
	}
	c.initFastPath()
	return c
}

// Dim returns the attribute dimension rows must have.
func (sc *Scorer) Dim() int { return len(sc.u) }

// Model returns the model this scorer was compiled from.
func (sc *Scorer) Model() *Model { return sc.model }

// Score projects one raw observation and returns its score in [0,1].
// It allocates nothing (see the type comment for the quintic exception).
func (sc *Scorer) Score(x []float64) float64 {
	if sc.fastCubic && len(x) == len(sc.mn) {
		// Normalise and collapse the distance profile in one register
		// pass; the cubic kernel needs nothing else. Rows of the wrong
		// dimension fall through to ApplyInto's canonical panic.
		c0, c1, c2, c3 := sc.snorm[0], sc.snorm[1], sc.snorm[2], sc.snorm[3]
		c4, c5, c6 := sc.snorm[4], sc.snorm[5], sc.snorm[6]
		var x2 float64
		for j, v := range x {
			u := (v - sc.mn[j]) * sc.inv[j]
			x2 += u * u
			t := 2 * u
			row := sc.smono[j*4 : j*4+4]
			c0 -= t * row[0]
			c1 -= t * row[1]
			c2 -= t * row[2]
			c3 -= t * row[3]
		}
		c0 += x2
		s, _ := cubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6, sc.eng.cells, false)
		return s
	}
	sc.model.Norm.ApplyInto(sc.u, x)
	s, _ := sc.eng.project(sc.u)
	return s
}

// ScoreInto scores every row into dst, reusing dst's backing array when it
// has the capacity (allocating a fresh slice otherwise), and returns the
// slice of len(rows) scores. Beyond the possible dst growth it allocates
// nothing, and each score carries the Score/Model.Score 1e-12 agreement
// contract with the uncompiled reference projection.
func (sc *Scorer) ScoreInto(dst []float64, rows [][]float64) []float64 {
	if cap(dst) >= len(rows) {
		dst = dst[:len(rows)]
	} else {
		dst = make([]float64, len(rows))
	}
	for i, x := range rows {
		dst[i] = sc.Score(x)
	}
	return dst
}

// ScoreFrame scores every row of the frame into dst under the same reuse
// and parity contract as ScoreInto: dst's backing array is kept when it has
// the capacity, nothing else is allocated, and every score agrees with the
// uncompiled reference projection (Model.Score) to within 1e-12 on
// componentwise-monotone curves. Rows are zero-copy strided views into the
// frame's contiguous backing array, so large batches stream through the
// cache instead of chasing row pointers.
func (sc *Scorer) ScoreFrame(dst []float64, f *frame.Frame) []float64 {
	if cap(dst) >= f.N() {
		dst = dst[:f.N()]
	} else {
		dst = make([]float64, f.N())
	}
	sc.ScoreFrameRange(dst, f, 0, f.N())
	return dst
}

// ScoreFrameRange scores frame rows [lo, hi) into dst[lo:hi]. It is the
// sharding primitive behind worker pools: several goroutines, each holding
// its own Scorer, write disjoint ranges of one shared dst over one shared
// read-only frame with no synchronisation. Each row goes through Score, so
// a batch's scores are bit-identical to scoring the same rows one by one.
func (sc *Scorer) ScoreFrameRange(dst []float64, f *frame.Frame, lo, hi int) {
	sc.ScoreFrameRangeCtx(nil, dst, f, lo, hi)
}

// ScoreFrameRangeCtx is ScoreFrameRange with cooperative cancellation: ctx
// (when non-nil) is polled once every projBlockRows rows, starting before
// the first, and the call returns the number of rows actually scored —
// hi-lo on completion, less when the context was done first, in which case
// dst beyond lo+n is untouched. The scorer is left in a consistent,
// reusable state either way: cancellation lands only between rows, never
// inside a kernel, so a cancelled scorer can be released back to its
// model's pool. A nil ctx costs one comparison per row.
func (sc *Scorer) ScoreFrameRangeCtx(ctx context.Context, dst []float64, f *frame.Frame, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if ctx != nil && (i-lo)%projBlockRows == 0 && ctx.Err() != nil {
			return i - lo
		}
		dst[i] = sc.Score(f.Row(i))
	}
	return hi - lo
}
