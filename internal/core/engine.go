package core

import (
	"math"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/optimize"
)

// engine is the compiled projection kernel: the curve's squared-distance
// profile collapsed to a 1-D polynomial (bezier.Compiled), plus the scratch
// that profile and its two derivatives need. One engine serves one
// goroutine; clone() hands an independent scratch to another worker while
// sharing the immutable compiled coefficients.
//
// project follows the exact decision tree of projectOne (project.go) — grid
// seed, bracket classification by derivative signs, safeguarded Newton
// refinement — so the two implementations agree on every row to ~1e-12:
// both converge to the same stationary point of the same profile, they just
// evaluate it differently (Horner on precomputed coefficients here, curve
// evaluations there). Keep the control flow in sync with projectOne and
// optimize.NewtonBisect.
type engine struct {
	kind  Projector
	cells int
	tol   float64
	comp  *bezier.Compiled
	curve *bezier.Curve

	// dc/d1c/d2c hold the distance profile D and its first two derivatives
	// for the row being projected, as polynomials in t = s − ½.
	dc, d1c, d2c []float64
	// distFn is dc bound as a plain function once, so the GSS/Brent
	// refinement strategies can reuse the optimizer implementations without
	// a per-row closure allocation.
	distFn func(float64) float64

	// warmRows/warmHits count warm-started projections and validated
	// basins for fit telemetry. One engine is owned by one goroutine, so
	// plain fields suffice; the fit pool reads them only behind its
	// WaitGroup barrier.
	warmRows int64
	warmHits int64

	// Warm lockstep refinement scratch (lockstep.go), embedded by value so
	// the engine allocation count never changes. scalarTail forces the
	// per-row warm refinement path — the reference the warm lane parity
	// test compares against.
	ptail      polyTail
	scalarTail bool
}

// projBlockRows is the row-block size of the warm lockstep store and the
// cancellation cadence of frame scoring: ScoreFrameRangeCtx polls its
// context once per projBlockRows rows.
const projBlockRows = 64

// newEngine compiles c for the projection strategy in opts. opts must have
// defaults applied.
func newEngine(c *bezier.Curve, opts Options) *engine {
	e := &engine{
		kind:  opts.Projector,
		cells: opts.GridCells,
		tol:   opts.ProjTol,
		comp:  bezier.Compile(c),
		curve: c,
	}
	e.initScratch()
	return e
}

func (e *engine) initScratch() {
	n := 2*e.comp.Degree() + 1
	e.dc = make([]float64, n)
	e.d1c = make([]float64, n-1)
	e.d2c = make([]float64, n-2)
	e.distFn = func(s float64) float64 {
		return bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin)
	}
}

// clone returns an engine sharing the compiled coefficients but owning
// fresh scratch, for use by another goroutine.
func (e *engine) clone() *engine {
	c := &engine{kind: e.kind, cells: e.cells, tol: e.tol, comp: e.comp, curve: e.curve, scalarTail: e.scalarTail}
	c.initScratch()
	return c
}

// recompile points the engine at c and rebuilds the compiled coefficients
// in place, reusing their buffers (bezier.CompileInto). Engines cloned from
// this one share the Compiled, so one recompile refreshes all of them — that
// is exactly what the fit worker pool wants between iterations of
// Algorithm 1, and why recompile must only run while every sharing engine
// is quiescent (the pool's workers are parked on their job channels).
func (e *engine) recompile(c *bezier.Curve) {
	// A shape change cannot be honoured: clones sharing e.comp keep their
	// own dc/d1c/d2c scratch that recompile cannot reach, so resizing here
	// would fix this engine and corrupt every clone. No fit-loop caller
	// changes degree or dimension mid-run; enforce that rather than assume.
	if c.Degree() != e.comp.Degree() || c.Dim() != e.comp.Dim() {
		panic("core: engine.recompile across curve shapes; build a new engine")
	}
	e.curve = c
	bezier.CompileInto(e.comp, c)
}

// projectWarm is project seeded by the row's score from the previous
// Algorithm-1 iteration instead of a fresh grid scan. Between consecutive
// iterations the curve barely moves, so the previous score almost always
// sits inside the basin of the new minimiser; safeguarded Newton from there
// costs a handful of Horner passes instead of a GridCells-point scan plus a
// 1-D search. Validity is checked, not assumed:
//
//   - the derivative-sign bracket [sPrev−h, sPrev+h] (h the grid spacing)
//     must enclose a minimum, the same classification project applies to its
//     grid bracket; and
//   - the attained distance must not regress past the previous iterate's
//     parameter, i.e. D(s) ≤ D(sPrev) up to roundoff — Newton that wandered
//     out of the basin cannot silently inflate the objective.
//
// Rows failing either check fall back to the cold decision tree — reusing
// the already-collapsed profile, so a fallback costs one grid scan extra,
// never a second collapse — and report warm=false; the fit stays within
// the existing convergence contract either way. The quintic strategy
// solves exact polynomial roots and takes no seed; it always projects
// cold.
func (e *engine) projectWarm(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	if e.kind == ProjectorQuintic {
		s, d := projectQuintic(e.curve, u)
		return s, d, false
	}
	e.comp.DistPolyInto(e.dc, u)
	e.fillDerivatives()
	h := 1 / float64(e.cells)
	lo := sPrev - h
	hi := sPrev + h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	ga := bezier.EvalPoly(e.d1c, lo-bezier.DistPolyOrigin)
	gb := bezier.EvalPoly(e.d1c, hi-bezier.DistPolyOrigin)
	if ga <= 0 && gb >= 0 {
		dPrev := bezier.EvalPoly(e.dc, sPrev-bezier.DistPolyOrigin)
		s = e.newtonRefine(lo, hi, sPrev)
		if d := bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin); d <= dPrev+1e-12*(1+dPrev) {
			return s, nonNeg(d), true
		}
		// Newton wandered: fall through to the cold path below.
	}
	// No validated basin around the warm start (it moved, or the row
	// projects onto a domain edge, which only the grid pass detects). The
	// profile in e.dc is already collapsed; only the seeding is redone.
	if e.kind == ProjectorNewton && len(e.dc) == 7 {
		s, d := e.projectCubicNewton()
		return s, d, false
	}
	s, d := e.projectSeeded()
	return s, d, false
}

// project computes argmin_s ‖u − f(s)‖² and the attained squared distance
// for one normalised row. Zero allocations for the GSS/Brent/Newton
// strategies; the quintic strategy delegates to the exact root solver
// (which allocates) to stay bit-identical with the reference path.
func (e *engine) project(u []float64) (float64, float64) {
	if e.kind == ProjectorQuintic {
		return projectQuintic(e.curve, u)
	}
	e.comp.DistPolyInto(e.dc, u)
	if e.kind == ProjectorNewton && len(e.dc) == 7 {
		// Cubic curves served through the Newton strategy are THE hot
		// path (rpcd's default); it gets a fully inlined kernel.
		return e.projectCubicNewton()
	}
	e.fillDerivatives()
	return e.projectSeeded()
}

// fillDerivatives derives the d1c/d2c coefficient arrays from the distance
// profile currently in e.dc.
func (e *engine) fillDerivatives() {
	for c := 1; c < len(e.dc); c++ {
		e.d1c[c-1] = float64(c) * e.dc[c]
	}
	for c := 1; c < len(e.d1c); c++ {
		e.d2c[c-1] = float64(c) * e.d1c[c]
	}
}

// projectSeeded is the cold decision tree — grid seed, bracket
// classification, strategy refinement, safeguarded Newton — over the
// already-collapsed profile in e.dc/d1c/d2c. project and the warm-start
// fallback both land here, so a row never pays the profile collapse twice.
func (e *engine) projectSeeded() (float64, float64) {
	// Grid pass — mirrors optimize.GridSeedBest over [0,1].
	h := 1 / float64(e.cells)
	bestI := 0
	bestV := math.Inf(1)
	for i := 0; i <= e.cells; i++ {
		s := float64(i) * h
		if v := bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin); v < bestV {
			bestV, bestI = v, i
		}
	}

	lo := float64(bestI-1) * h
	hi := float64(bestI+1) * h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	s0 := float64(bestI) * h

	// Bracket classification — mirrors projectOne.
	ga := bezier.EvalPoly(e.d1c, lo-bezier.DistPolyOrigin)
	gb := bezier.EvalPoly(e.d1c, hi-bezier.DistPolyOrigin)
	if !(ga <= 0 && gb >= 0) {
		return s0, nonNeg(bestV)
	}

	start := s0
	switch e.kind {
	case ProjectorBrent:
		if s1, f1 := optimize.BrentMin(e.distFn, lo, hi, e.tol, 200); f1 < bestV {
			start = s1
		}
	case ProjectorNewton:
		// The grid best seeds Newton directly.
	default: // ProjectorGSS and unknown values
		if s1, f1 := optimize.GoldenSectionMin(e.distFn, lo, hi, e.tol, 200); f1 < bestV {
			start = s1
		}
	}

	s := e.newtonRefine(lo, hi, start)
	return s, nonNeg(bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin))
}

// newtonRefine is the safeguarded Newton iteration on D′ over the prepared
// d1c/d2c profile, from start inside the sign bracket [a, b] — the shared
// tail of projectSeeded and projectWarm, an inlined mirror of
// optimize.NewtonBisect (function-pointer indirection would dominate the
// refinement cost; the cubic kernel keeps its own register-resident Estrin
// copy). Sharing it is what keeps the warm and cold refinements in
// lockstep, which the warm/cold parity contract depends on.
func (e *engine) newtonRefine(a, b, start float64) float64 {
	s := start
	for i := 0; i < 80; i++ {
		t := s - bezier.DistPolyOrigin
		gs := bezier.EvalPoly(e.d1c, t)
		if gs == 0 {
			break
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		nt := s - gs/bezier.EvalPoly(e.d2c, t)
		if !(nt > a && nt < b) {
			nt = 0.5 * (a + b)
		}
		if nt == s {
			break
		}
		s = nt
	}
	return s
}

// projectCubicNewton is project's entry into the cubic serving kernel,
// feeding it the collapsed profile from e.dc.
func (e *engine) projectCubicNewton() (float64, float64) {
	return cubicNewtonKernel(
		e.dc[0], e.dc[1], e.dc[2], e.dc[3], e.dc[4], e.dc[5], e.dc[6],
		e.cells, true)
}

// cubicNewtonKernel projects one row given its collapsed degree-6 distance
// profile c0..c6 (coefficients in powers of t = s − DistPolyOrigin): the
// profile and its derivatives live in registers, every evaluation is an
// unrolled polynomial pass, and the Newton seed is sharpened by a parabola
// through the best grid sample and its neighbours. Same decision tree as
// project/projectOne; only the seed and the arithmetic differ, which the
// convergence contract absorbs. With wantDist false the attained distance
// is not evaluated (0 is returned) — serving only needs the score.
func cubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6 float64, cells int, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
	h := 1 / float64(cells)
	bestI := 0
	bestV := math.Inf(1)
	// Two grid points per iteration, Estrin-evaluated: the two profile
	// values are independent dependency chains the CPU overlaps, and the
	// pairwise scheme keeps each chain short.
	i := 0
	for ; i+1 <= cells; i += 2 {
		t := float64(i)*h - origin
		u := float64(i+1)*h - origin
		t2 := t * t
		u2 := u * u
		v := (c0 + c1*t) + t2*((c2+c3*t)+t2*((c4+c5*t)+t2*c6))
		w := (c0 + c1*u) + u2*((c2+c3*u)+u2*((c4+c5*u)+u2*c6))
		if v < bestV {
			bestV, bestI = v, i
		}
		if w < bestV {
			bestV, bestI = w, i+1
		}
	}
	if i <= cells {
		t := float64(i)*h - origin
		t2 := t * t
		if v := (c0 + c1*t) + t2*((c2+c3*t)+t2*((c4+c5*t)+t2*c6)); v < bestV {
			bestV, bestI = v, i
		}
	}
	return cubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6, cells, bestI, bestV, wantDist)
}

// cubicNewtonFromSeed is cubicNewtonKernel after its grid scan: bracket
// classification, parabolic sharpening, and the Estrin-form safeguarded
// Newton refinement around grid node bestI with profile value bestV. It
// stays a separate function because folding it into cubicNewtonKernel made
// the cold 4096-row step (BenchmarkProjectCold) about 6% slower.
func cubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6 float64, cells, bestI int, bestV float64, wantDist bool) (float64, float64) {
	s, lo, hi, refine := cubicSeedBracket(c0, c1, c2, c3, c4, c5, c6, cells, bestI, bestV)
	if !refine {
		if wantDist {
			return s, nonNeg(bestV)
		}
		return s, 0
	}

	// D′ and D″ coefficients (in the same shifted basis).
	b0, b1, b2, b3, b4, b5 := c1, 2*c2, 3*c3, 4*c4, 5*c5, 6*c6
	e0, e1, e2, e3, e4 := b1, 2*b2, 3*b3, 4*b4, 5*b5
	const origin = bezier.DistPolyOrigin

	// Safeguarded Newton on D′ — control flow of optimize.NewtonBisect,
	// with two liberties. The derivatives are evaluated in Estrin form
	// (pairwise, on a shared t²), which halves the dependency chain this
	// serial loop sits on; and iteration stops once the step is below
	// 1e-13 instead of at the exact floating-point fixpoint — the tail
	// iterations that skips move s by less than a tenth of the 1e-12
	// agreement budget and cost as much as the whole grid pass.
	a, b := lo, hi
	for i := 0; i < 80; i++ {
		t := s - origin
		t2 := t * t
		gs := (b0 + b1*t) + t2*((b2+b3*t)+t2*(b4+b5*t))
		if gs == 0 {
			break
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		hs := (e0 + e1*t) + t2*((e2+e3*t)+t2*e4)
		nt := s - gs/hs
		if !(nt > a && nt < b) {
			nt = 0.5 * (a + b)
		}
		d := nt - s
		s = nt
		if d < 1e-13 && d > -1e-13 {
			break
		}
	}
	if !wantDist {
		return s, 0
	}
	t := s - origin
	return s, nonNeg((((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0)
}

// cubicSeedBracket is the pre-loop of cubicNewtonFromSeed: bracket
// classification by the sign of D′ at the bracket ends, then parabolic
// sharpening of the Newton start through the best grid sample and its
// neighbours. refine=false reports a bracket miss — the caller publishes
// start (= the seed node's parameter) with value bestV and skips
// refinement, so edge rows land on exact grid parameters, 0 and 1 included.
func cubicSeedBracket(c0, c1, c2, c3, c4, c5, c6 float64, cells, bestI int, bestV float64) (start, lo, hi float64, refine bool) {
	b0, b1, b2, b3, b4, b5 := c1, 2*c2, 3*c3, 4*c4, 5*c5, 6*c6
	const origin = bezier.DistPolyOrigin
	h := 1 / float64(cells)
	lo = float64(bestI-1) * h
	hi = float64(bestI+1) * h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	s0 := float64(bestI) * h

	tl := lo - origin
	th := hi - origin
	ga := ((((b5*tl+b4)*tl+b3)*tl+b2)*tl+b1)*tl + b0
	gb := ((((b5*th+b4)*th+b3)*th+b2)*th+b1)*th + b0
	if !(ga <= 0 && gb >= 0) {
		return s0, lo, hi, false
	}

	// Parabolic seed through (lo, s0, hi): two extra profile evaluations
	// buy a Newton start ~h² from the root instead of ~h.
	start = s0
	if lo < s0 && s0 < hi {
		vl := (((((c6*tl+c5)*tl+c4)*tl+c3)*tl+c2)*tl+c1)*tl + c0
		vh := (((((c6*th+c5)*th+c4)*th+c3)*th+c2)*th+c1)*th + c0
		if den := vl - 2*bestV + vh; den > 0 {
			if off := 0.5 * h * (vl - vh) / den; off > -h && off < h {
				start = s0 + off
			}
		}
	}
	return start, lo, hi, true
}

// projectBlock projects frame rows [lo, hi) through project, writing
// scores[i] and resid[i] for each global row index i. Every row is seeded
// by its own grid scan, so a row's result never depends on the range it
// was projected in.
func (e *engine) projectBlock(u *frame.Frame, lo, hi int, scores, resid []float64) {
	for i := lo; i < hi; i++ {
		scores[i], resid[i] = e.project(u.Row(i))
	}
}

// nonNeg clamps the collapsed profile's value at zero: for rows on the
// curve the cancellation can dip a hair below it, and a squared residual
// must not be negative.
func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
