// Package optimize provides the one-dimensional minimisers the RPC
// projection step needs: Golden Section Search (the method Algorithm 1 of
// the paper adopts for Eq. 22), coarse grid seeding for non-unimodal
// distance profiles, and a quadratic-interpolation refinement.
package optimize

import (
	"fmt"
	"math"
)

// invPhi = 1/φ, the golden section split ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSectionMin minimises f over [lo, hi] assuming f is unimodal there,
// shrinking the bracket until its width is at most tol (or maxIter
// evaluations pass). It returns the best *evaluated* point seen and its
// objective value, never an unevaluated midpoint, so the returned parameter
// always has a known objective value and the caller need not re-evaluate f.
//
// Tolerance contract: for a unimodal f the true minimiser lies inside the
// final bracket, so the returned point is within tol of it; the attained
// value can exceed the true minimum by up to f″/2·tol².
func GoldenSectionMin(f func(float64) float64, lo, hi, tol float64, maxIter int) (x, fx float64) {
	if hi < lo {
		panic(fmt.Sprintf("optimize: GoldenSectionMin inverted bracket [%v,%v]", lo, hi))
	}
	if tol <= 0 {
		tol = 1e-10
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	x, fx = c, fc
	if fd < fx {
		x, fx = d, fd
	}
	for i := 0; i < maxIter && b-a > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
			if fc < fx {
				x, fx = c, fc
			}
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
			if fd < fx {
				x, fx = d, fd
			}
		}
	}
	return x, fx
}

// GridSeedBest evaluates f at cells+1 evenly spaced points on [lo, hi] and
// returns the bracket [left, right] around the best sample, plus that
// sample and its value, so callers seeding a refinement step start from an
// already-evaluated point. The RPC projection objective ‖x − f(s)‖² along a
// cubic curve can have up to three local minima, so GSS alone could land in
// the wrong basin; a coarse grid pass first makes the combined projector
// reliable.
func GridSeedBest(f func(float64) float64, lo, hi float64, cells int) (left, right, best, fbest float64) {
	if cells < 1 {
		panic(fmt.Sprintf("optimize: GridSeedBest needs at least 1 cell, got %d", cells))
	}
	if hi < lo {
		panic(fmt.Sprintf("optimize: GridSeedBest inverted bracket [%v,%v]", lo, hi))
	}
	h := (hi - lo) / float64(cells)
	bestI := 0
	bestV := math.Inf(1)
	for i := 0; i <= cells; i++ {
		s := lo + float64(i)*h
		if v := f(s); v < bestV {
			bestV, bestI = v, i
		}
	}
	left = lo + float64(bestI-1)*h
	right = lo + float64(bestI+1)*h
	if left < lo {
		left = lo
	}
	if right > hi {
		right = hi
	}
	return left, right, lo + float64(bestI)*h, bestV
}

// NewtonBisect finds a root of g inside [a, b] given g(a) ≤ 0 ≤ g(b), by
// Newton steps (using the derivative dg) safeguarded with bisection: a step
// that leaves the current sign-bracket, or lands where dg is not positive,
// is replaced by the bracket midpoint, so the iteration always converges.
// x0 is the starting point (clamped into [a, b]). The RPC projectors use it
// to refine the projection parameter to machine precision: the projection
// objective's derivative crosses zero from below at a local minimum, which
// is exactly the g(a) ≤ 0 ≤ g(b) precondition.
//
// The compiled projection engine in internal/core inlines this control flow
// over Horner-evaluated polynomials; keep the two in sync.
func NewtonBisect(g, dg func(float64) float64, a, b, x0 float64, maxIter int) float64 {
	s := x0
	if s < a {
		s = a
	}
	if s > b {
		s = b
	}
	for i := 0; i < maxIter; i++ {
		gs := g(s)
		if gs == 0 {
			return s
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		t := s - gs/dg(s)
		// Reject non-finite, out-of-bracket, or non-contracting steps
		// (dg ≤ 0 yields one of those) and bisect instead.
		if !(t > a && t < b) {
			t = 0.5 * (a + b)
		}
		if t == s {
			return s
		}
		s = t
	}
	return s
}

// BrentMin refines a minimum of f inside [lo,hi] with successive parabolic
// interpolation, falling back to golden section when the parabola steps
// misbehave. It typically converges in far fewer evaluations than pure GSS
// and is offered as the "fast projector" ablation. It returns both the
// minimiser and its objective value; the returned point is always the best
// one evaluated (an invariant of Brent's bookkeeping), so callers need not
// re-evaluate f.
func BrentMin(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, float64) {
	if hi < lo {
		panic(fmt.Sprintf("optimize: BrentMin inverted bracket [%v,%v]", lo, hi))
	}
	const cgold = 0.3819660112501051 // 2 − φ
	a, b := lo, hi
	x := a + cgold*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + 1e-12
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Fit a parabola through (v,fv), (w,fw), (x,fx).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = cgold * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}
