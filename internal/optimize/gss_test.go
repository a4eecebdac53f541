package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.37) * (x - 0.37) }
	got, _ := GoldenSectionMin(f, 0, 1, 1e-10, 200)
	if math.Abs(got-0.37) > 1e-8 {
		t.Errorf("minimum = %v, want 0.37", got)
	}
}

func TestGoldenSectionEndpointMinimum(t *testing.T) {
	// Monotone increasing on the bracket → minimum at lo.
	got, _ := GoldenSectionMin(func(x float64) float64 { return x }, 0, 1, 1e-10, 200)
	if got > 1e-6 {
		t.Errorf("minimum = %v, want ~0", got)
	}
	got, _ = GoldenSectionMin(func(x float64) float64 { return -x }, 0, 1, 1e-10, 200)
	if got < 1-1e-6 {
		t.Errorf("minimum = %v, want ~1", got)
	}
}

func TestGoldenSectionQuickProperty(t *testing.T) {
	// For any unimodal |x−c| on [0,1] with interior c, GSS finds c.
	f := func(raw float64) bool {
		c := math.Mod(math.Abs(raw), 1)
		if math.IsNaN(c) {
			c = 0.5
		}
		got, _ := GoldenSectionMin(func(x float64) float64 { return math.Abs(x - c) }, 0, 1, 1e-10, 300)
		return math.Abs(got-c) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenSectionPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	GoldenSectionMin(func(x float64) float64 { return x }, 1, 0, 1e-9, 10)
}

func TestGoldenSectionDefaultTol(t *testing.T) {
	got, _ := GoldenSectionMin(func(x float64) float64 { return (x - 0.5) * (x - 0.5) }, 0, 1, 0, 300)
	if math.Abs(got-0.5) > 1e-7 {
		t.Errorf("minimum with default tol = %v", got)
	}
}

func TestGridSeedBracketsGlobalMin(t *testing.T) {
	// Bimodal with the deeper basin near 0.8.
	f := func(x float64) float64 {
		return math.Min((x-0.2)*(x-0.2)+0.05, (x-0.8)*(x-0.8))
	}
	lo, hi, _, _ := GridSeedBest(f, 0, 1, 50)
	if lo > 0.8 || hi < 0.8 {
		t.Errorf("bracket [%v,%v] misses global minimum 0.8", lo, hi)
	}
}

func TestGridSeedClampsToDomain(t *testing.T) {
	lo, hi, _, _ := GridSeedBest(func(x float64) float64 { return x }, 0, 1, 10)
	if lo < 0 {
		t.Errorf("lo = %v must stay in domain", lo)
	}
	if lo != 0 || math.Abs(hi-0.1) > 1e-12 {
		t.Errorf("bracket [%v,%v], want [0,0.1]", lo, hi)
	}
	lo, hi, _, _ = GridSeedBest(func(x float64) float64 { return -x }, 0, 1, 10)
	if hi > 1 || math.Abs(lo-0.9) > 1e-12 {
		t.Errorf("bracket [%v,%v], want [0.9,1]", lo, hi)
	}
}

func TestGridSeedPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { GridSeedBest(func(float64) float64 { return 0 }, 0, 1, 0) },
		func() { GridSeedBest(func(float64) float64 { return 0 }, 1, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGridSeededGSSEscapesWrongBasin(t *testing.T) {
	// Without grid seeding a pure GSS on [0,1] would settle near the
	// shallow basin boundary; GSS over the grid's winning bracket must find
	// the deep one.
	f := func(x float64) float64 {
		return math.Min((x-0.15)*(x-0.15)+0.2, 3*(x-0.85)*(x-0.85))
	}
	lo, hi, _, _ := GridSeedBest(f, 0, 1, 32)
	got, _ := GoldenSectionMin(f, lo, hi, 1e-10, 200)
	if math.Abs(got-0.85) > 1e-6 {
		t.Errorf("grid-seeded GSS = %v, want 0.85", got)
	}
}

func TestBrentQuartic(t *testing.T) {
	f := func(x float64) float64 { return math.Pow(x-0.6, 4) + 0.3*(x-0.6)*(x-0.6) }
	got, _ := BrentMin(f, 0, 1, 1e-12, 200)
	if math.Abs(got-0.6) > 1e-6 {
		t.Errorf("Brent = %v, want 0.6", got)
	}
}

func TestBrentMatchesGoldenSection(t *testing.T) {
	for _, c := range []float64{0.1, 0.33, 0.5, 0.77, 0.95} {
		f := func(x float64) float64 { return (x - c) * (x - c) }
		g, _ := GoldenSectionMin(f, 0, 1, 1e-11, 300)
		b, _ := BrentMin(f, 0, 1, 1e-11, 300)
		if math.Abs(g-b) > 1e-6 {
			t.Errorf("c=%v: GSS %v vs Brent %v", c, g, b)
		}
	}
}

func TestBrentPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	BrentMin(func(x float64) float64 { return x }, 1, 0, 1e-9, 10)
}

func TestGoldenSectionReturnsEvaluatedPoint(t *testing.T) {
	// The returned minimiser must be a point that f was actually called
	// with (the best one), not a synthetic midpoint.
	evaluated := map[float64]bool{}
	f := func(x float64) float64 {
		evaluated[x] = true
		return (x - 0.31) * (x - 0.31)
	}
	x, fx := GoldenSectionMin(f, 0, 1, 1e-10, 200)
	if !evaluated[x] {
		t.Errorf("returned point %v was never evaluated", x)
	}
	if fx != (x-0.31)*(x-0.31) {
		t.Errorf("returned value %v does not match f(x)=%v", fx, (x-0.31)*(x-0.31))
	}
	for e := range evaluated {
		if (e-0.31)*(e-0.31) < fx {
			t.Errorf("evaluated point %v beats the returned one", e)
		}
	}
}

func TestBrentMinReturnsAttainedValue(t *testing.T) {
	f := func(x float64) float64 { return math.Cosh(x - 0.4) }
	x, fx := BrentMin(f, 0, 1, 1e-12, 200)
	if fx != f(x) {
		t.Errorf("BrentMin value %v != f(x) %v", fx, f(x))
	}
	if math.Abs(x-0.4) > 1e-6 {
		t.Errorf("BrentMin x = %v, want 0.4", x)
	}
}

func TestNewtonBisect(t *testing.T) {
	// Root of g(x) = x³ − 0.2 in [0,1]; g(0) < 0 < g(1).
	g := func(x float64) float64 { return x*x*x - 0.2 }
	dg := func(x float64) float64 { return 3 * x * x }
	want := math.Cbrt(0.2)
	for _, x0 := range []float64{0, 0.5, 1, 0.03} {
		got := NewtonBisect(g, dg, 0, 1, x0, 80)
		if math.Abs(got-want) > 1e-14 {
			t.Errorf("NewtonBisect from %v = %.16g, want %.16g", x0, got, want)
		}
	}
	// Pathological derivative: dg = 0 everywhere forces pure bisection,
	// which must still converge.
	got := NewtonBisect(g, func(float64) float64 { return 0 }, 0, 1, 0.9, 200)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bisection fallback = %.16g, want %.16g", got, want)
	}
}

func TestGridSeedBestReturnsSample(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.52) * (x - 0.52) }
	lo, hi, best, fbest := GridSeedBest(f, 0, 1, 32)
	if best < lo || best > hi {
		t.Errorf("best sample %v outside bracket [%v,%v]", best, lo, hi)
	}
	if fbest != f(best) {
		t.Errorf("fbest %v != f(best) %v", fbest, f(best))
	}
}
