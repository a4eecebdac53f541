package core

import (
	"math"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
)

// This file holds the lockstep warm refinement tail: the fit's
// warm-started safeguarded-Newton refinement restructured from
// one-row-at-a-time into a structure-of-arrays kernel that advances
// laneWidth rows per step. Each row whose previous score still sits in a
// validated basin is gathered — profile derivatives, Newton start, sign
// bracket — into contiguous lanes, and one lockstep step performs the
// polynomial evaluations for every lane back to back. Each lane's Newton
// iteration is a long serial dependency chain (evaluate D′, divide,
// compare); interleaving eight independent chains lets the CPU overlap
// them, which is where the speedup comes from — the arithmetic per row is
// exactly the scalar kernel's. Cold projections (serving, and the fit's
// cold passes) seed and refine per row through engine.project: interleaved
// A/B runs showed lanes lose or tie there, and win only on the warm sweeps.
//
// Bit-stability invariants (pinned by TestLockstepWarmMatchesScalarTail):
//
//   - Lanes never interact arithmetically: a lane reads and writes only its
//     own row's state, so retire/backfill order, lane placement, and block
//     boundaries cannot change any row's result. A row refined in a lane is
//     bit-identical to the same row refined alone.
//   - Every expression is the scalar path's expression: the lanes run
//     newtonRefine's Horner forms and exact-fixpoint stop, and basin
//     classification happens per row through projectWarm's arithmetic
//     before any lane is filled.
//   - Rows the lockstep kernel cannot express — quintic models, engines
//     with the scalarTail test knob set — take the per-row projectWarm path.
//
// The scratch lives by value inside the engine (the ptail field): engines
// get bigger, but the allocation count of every fit path stays exactly
// what it was, which the zero-alloc-slack benchguard contract depends on.

const (
	// laneWidth is how many rows advance together through one lockstep
	// safeguarded-Newton step. Eight keeps every lane's state in L1 while
	// giving the CPU enough independent chains to hide the evaluate/divide
	// latency of each one.
	laneWidth = 8
	// maxProfLen is the longest collapsed distance profile an engine can
	// see: Options.validate caps Degree at 6, so 2·6+1 coefficients.
	maxProfLen = 2*6 + 1
	// pd1Len/pd2Len size the derivative rows of the pending store.
	pd1Len = maxProfLen - 1
	pd2Len = maxProfLen - 2
)

// b2u converts a bool to 0/1 without a branch (the compiler lowers the
// conditional to a flags-register read), for building full-width selection
// masks from exact float comparisons.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// polyTail is the SoA pending/lane store of the warm lockstep tail, sized
// for the largest supported profile. It serves only the warm-started fit
// refinement (any grid-seeded projector — the warm refinement is
// newtonRefine whatever the cold strategy is): projectWarmBlock pushes the
// rows with a validated basin here, and drain retires them.
type polyTail struct {
	pc     [projBlockRows * maxProfLen]float64
	pd1    [projBlockRows * pd1Len]float64
	pd2    [projBlockRows * pd2Len]float64
	ps     [projBlockRows]float64
	pa, pb [projBlockRows]float64
	pg     [projBlockRows]float64 // warm guard: D(sPrev)
	pres   [projBlockRows]float64
	pdist  [projBlockRows]float64 // D(refined s), unclamped
	prow   [projBlockRows]int32
	n      int
}

// evalPoly6 is bezier.EvalPoly's generic ascending-Horner loop unrolled
// for the first-derivative length of a cubic model's profile (len(d1c) = 6).
// The generic loop starts from a zero accumulator, and its first step
// 0·t + c_top is exactly c_top for every finite t (signed zeros included),
// so this straight-line form returns the same bits with no call or loop
// overhead.
func evalPoly6(c []float64, t float64) float64 {
	_ = c[5]
	return ((((c[5]*t+c[4])*t+c[3])*t+c[2])*t+c[1])*t + c[0]
}

// evalPoly7 is bezier.EvalPoly's len == 7 fast path verbatim; EvalPoly has a
// loop so the compiler never inlines it, and the lockstep phases evaluate
// cubic profiles often enough that the call overhead shows up in profiles.
func evalPoly7(c []float64, t float64) float64 {
	_ = c[6]
	return (((((c[6]*t+c[5])*t+c[4])*t+c[3])*t+c[2])*t+c[1])*t + c[0]
}

// drain refines every pending row, laneWidth at a time, with newtonRefine's
// exact iteration: generic ascending-coefficient Horner on D′ and D″
// (bezier.EvalPoly's loop), bisection safeguard, retirement on a zero
// derivative, the exact floating-point fixpoint nt == s, or 80 iterations.
// m is the profile length 2·degree+1; all pending rows share it (one model
// per block). The retirement distance is evaluated through bezier.EvalPoly
// itself so the degree-dependent unrolling decisions match the scalar path
// bit for bit. Cubic profiles — the default-degree reality of the fit —
// take the drain7 specialisation.
func (rt *polyTail) drain(m int, wantDist bool) {
	if m == 7 {
		rt.drain7(wantDist)
		return
	}
	n := rt.n
	if n == 0 {
		return
	}
	const origin = bezier.DistPolyOrigin
	m1, m2 := m-1, m-2
	var ls, la, lb [laneWidth]float64
	var it [laneWidth]int32
	var pi [laneWidth]int32
	for l := range pi {
		pi[l] = -1
	}
	active, next := 0, 0
	for {
		if active < laneWidth && next < n {
			for l := 0; l < laneWidth; l++ {
				if pi[l] >= 0 || next >= n {
					continue
				}
				p := next
				next++
				ls[l], la[l], lb[l] = rt.ps[p], rt.pa[p], rt.pb[p]
				it[l] = 0
				pi[l] = int32(p)
				active++
			}
		}
		if active == 0 {
			return
		}
		// One fused safeguarded-Newton step per active lane and round: the
		// descending Horner walks are bezier.EvalPoly's generic branch
		// (leading zero accumulator included), reading each lane's pending
		// rows in place (they are per-row contiguous already — no staging
		// copies). The lane bodies are independent chains the CPU overlaps
		// across the l loop; idle lanes cost nothing.
		for l := 0; l < laneWidth; l++ {
			if pi[l] < 0 {
				continue
			}
			p := int(pi[l])
			s := ls[l]
			t := s - origin
			c1 := rt.pd1[p*pd1Len : p*pd1Len+pd1Len]
			c2 := rt.pd2[p*pd2Len : p*pd2Len+pd2Len]
			g := 0.0
			for q := m1 - 1; q >= 0; q-- {
				g = g*t + c1[q]
			}
			done := false
			if g == 0 {
				done = true
			} else {
				h := 0.0
				for q := m2 - 1; q >= 0; q-- {
					h = h*t + c2[q]
				}
				// Bracket side and bisection safeguard as bit-mask selects.
				// The selects pick exactly the values the scalar branches
				// would (same comparisons, NaN and signed-zero semantics
				// included); eight interleaved iteration streams would make
				// those branches unpredictable, and the mispredicts would
				// eat the lockstep win. After the g == 0 check, g < 0 is
				// exactly the sign bit, so the bracket mask is the sign
				// extended to width.
				sb := math.Float64bits(s)
				msk := uint64(int64(math.Float64bits(g)) >> 63)
				a := math.Float64frombits(math.Float64bits(la[l])&^msk | sb&msk)
				b := math.Float64frombits(math.Float64bits(lb[l])&msk | sb&^msk)
				nt := s - g/h
				mid := 0.5 * (a + b)
				in := -(b2u(nt > a) & b2u(nt < b))
				nt = math.Float64frombits(math.Float64bits(nt)&in | math.Float64bits(mid)&^in)
				la[l], lb[l] = a, b
				it[l]++
				if nt == s {
					done = true
				} else {
					ls[l] = nt
					done = it[l] >= 80
				}
			}
			if done {
				rt.pres[p] = ls[l]
				if wantDist {
					rt.pdist[p] = bezier.EvalPoly(rt.pc[p*maxProfLen:p*maxProfLen+m], ls[l]-origin)
				}
				pi[l] = -1
				active--
			}
		}
	}
}

// drain7 is drain specialised to m == 7: the D′ and D″ Horner walks are
// unrolled (straight-line forms of the same generic loop, as in evalPoly6)
// and each lane's eleven derivative coefficients are staged into lane
// arrays at fill time. The variable-bound loops of the generic drain cost
// more in loop overhead than in arithmetic at this length — the unrolled
// bodies are small enough that the out-of-order window covers several lanes
// at once. Iteration semantics are the generic drain's, bit for bit.
func (rt *polyTail) drain7(wantDist bool) {
	n := rt.n
	if n == 0 {
		return
	}
	const origin = bezier.DistPolyOrigin
	var g0, g1, g2, g3, g4, g5 [laneWidth]float64 // D′ coefficients per lane
	var h0, h1, h2, h3, h4 [laneWidth]float64     // D″ coefficients per lane
	var ls, la, lb [laneWidth]float64
	var it [laneWidth]int32
	var pi [laneWidth]int32
	for l := range pi {
		pi[l] = -1
	}
	active, next := 0, 0
	for {
		if active < laneWidth && next < n {
			for l := 0; l < laneWidth; l++ {
				if pi[l] >= 0 || next >= n {
					continue
				}
				p := next
				next++
				c1 := rt.pd1[p*pd1Len : p*pd1Len+6]
				c2 := rt.pd2[p*pd2Len : p*pd2Len+5]
				g0[l], g1[l], g2[l], g3[l], g4[l], g5[l] = c1[0], c1[1], c1[2], c1[3], c1[4], c1[5]
				h0[l], h1[l], h2[l], h3[l], h4[l] = c2[0], c2[1], c2[2], c2[3], c2[4]
				ls[l], la[l], lb[l] = rt.ps[p], rt.pa[p], rt.pb[p]
				it[l] = 0
				pi[l] = int32(p)
				active++
			}
		}
		if active == 0 {
			return
		}
		for l := 0; l < laneWidth; l++ {
			if pi[l] < 0 {
				continue
			}
			s := ls[l]
			t := s - origin
			g := ((((g5[l]*t+g4[l])*t+g3[l])*t+g2[l])*t+g1[l])*t + g0[l]
			done := false
			if g == 0 {
				done = true
			} else {
				h := (((h4[l]*t+h3[l])*t+h2[l])*t+h1[l])*t + h0[l]
				sb := math.Float64bits(s)
				msk := uint64(int64(math.Float64bits(g)) >> 63)
				a := math.Float64frombits(math.Float64bits(la[l])&^msk | sb&msk)
				b := math.Float64frombits(math.Float64bits(lb[l])&msk | sb&^msk)
				nt := s - g/h
				mid := 0.5 * (a + b)
				in := -(b2u(nt > a) & b2u(nt < b))
				nt = math.Float64frombits(math.Float64bits(nt)&in | math.Float64bits(mid)&^in)
				la[l], lb[l] = a, b
				it[l]++
				if nt == s {
					done = true
				} else {
					ls[l] = nt
					done = it[l] >= 80
				}
			}
			if done {
				p := int(pi[l])
				rt.pres[p] = ls[l]
				if wantDist {
					rt.pdist[p] = evalPoly7(rt.pc[p*maxProfLen:p*maxProfLen+7], ls[l]-origin)
				}
				pi[l] = -1
				active--
			}
		}
	}
}

// fillDerivsInto derives the first- and second-derivative coefficient rows
// of the profile dc into d1 and d2 — engine.fillDerivatives over caller
// buffers, so projectWarmBlock can prepare pending rows in place.
func fillDerivsInto(dc, d1, d2 []float64) {
	for c := 1; c < len(dc); c++ {
		d1[c-1] = float64(c) * dc[c]
	}
	for c := 1; c < len(d1); c++ {
		d2[c-1] = float64(c) * d1[c]
	}
}

// projectWarmBlock is the lockstep form of the warm-started projection loop:
// projectWarm's exact decision tree — collapse, basin classification around
// the previous score, safeguarded Newton, no-regression guard, cold fallback
// — with the Newton refinement of validated basins run through the general
// lanes a block at a time. The warm refinement is newtonRefine for every
// grid-seeded projector, so one lane kernel serves GSS, Brent, and Newton
// fits alike; quintic models (no warm seed) and scalarTail engines take the
// per-row path. resid must be non-nil (the fit always tracks residuals).
func (e *engine) projectWarmBlock(u *frame.Frame, lo, hi int, scores, resid, warm []float64) {
	if e.kind == ProjectorQuintic || e.scalarTail {
		for i := lo; i < hi; i++ {
			s, r2, hit := e.projectWarm(u.Row(i), warm[i])
			scores[i], resid[i] = s, r2
			e.warmRows++
			if hit {
				e.warmHits++
			}
		}
		return
	}
	const origin = bezier.DistPolyOrigin
	m := len(e.dc)
	cubic := e.kind == ProjectorNewton && m == 7
	h := 1 / float64(e.cells)
	rt := &e.ptail
	for base := lo; base < hi; base += projBlockRows {
		bn := hi - base
		if bn > projBlockRows {
			bn = projBlockRows
		}
		rt.n = 0
		for r := 0; r < bn; r++ {
			i := base + r
			e.warmRows++
			sPrev := warm[i]
			p := rt.n
			pc := rt.pc[p*maxProfLen : p*maxProfLen+m]
			p1 := rt.pd1[p*pd1Len : p*pd1Len+m-1]
			p2 := rt.pd2[p*pd2Len : p*pd2Len+m-2]
			e.comp.DistPolyInto(pc, u.Row(i))
			fillDerivsInto(pc, p1, p2)
			wlo := sPrev - h
			whi := sPrev + h
			if wlo < 0 {
				wlo = 0
			}
			if whi > 1 {
				whi = 1
			}
			// The basin classification and guard evaluations are EvalPoly's
			// arithmetic; at the default cubic degree the local unrolled
			// forms (identical bits) skip three non-inlinable calls per row.
			var ga, gb float64
			if cubic {
				ga = evalPoly6(p1, wlo-origin)
				gb = evalPoly6(p1, whi-origin)
			} else {
				ga = bezier.EvalPoly(p1, wlo-origin)
				gb = bezier.EvalPoly(p1, whi-origin)
			}
			if ga <= 0 && gb >= 0 {
				rt.ps[p], rt.pa[p], rt.pb[p] = sPrev, wlo, whi
				if cubic {
					rt.pg[p] = evalPoly7(pc, sPrev-origin)
				} else {
					rt.pg[p] = bezier.EvalPoly(pc, sPrev-origin)
				}
				rt.prow[p] = int32(i)
				rt.n++
				continue
			}
			// No validated basin: the cold decision tree over the collapsed
			// profile, exactly projectWarm's fallback — moved into the
			// engine scratch the cold kernels read (same bits, the collapse
			// is deterministic).
			copy(e.dc, pc)
			var s, dsq float64
			if cubic {
				s, dsq = e.projectCubicNewton()
			} else {
				copy(e.d1c, p1)
				copy(e.d2c, p2)
				s, dsq = e.projectSeeded()
			}
			scores[i], resid[i] = s, dsq
		}
		rt.drain(m, true)
		for p := 0; p < rt.n; p++ {
			i := int(rt.prow[p])
			if d := rt.pdist[p]; d <= rt.pg[p]+1e-12*(1+rt.pg[p]) {
				scores[i], resid[i] = rt.pres[p], nonNeg(d)
				e.warmHits++
				continue
			}
			// Newton wandered out of the basin. The engine scratch has since
			// been overwritten by later rows of the block, so re-collapse —
			// DistPolyInto is deterministic, so the fallback sees the same
			// profile bits the scalar path would.
			e.comp.DistPolyInto(e.dc, u.Row(i))
			if cubic {
				s, dsq := e.projectCubicNewton()
				scores[i], resid[i] = s, dsq
				continue
			}
			e.fillDerivatives()
			s, dsq := e.projectSeeded()
			scores[i], resid[i] = s, dsq
		}
	}
}
