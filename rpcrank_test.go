package rpcrank

import (
	"math"
	"strings"
	"testing"

	"rpcrank/internal/dataset"
)

func TestRankQuickstart(t *testing.T) {
	rows, latent, _ := dataset.BezierCloud(MustDirection(1, -1), 120, 0.02, 55)
	res, err := Rank(rows, Config{Alpha: MustDirection(1, -1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 120 || len(res.Positions) != 120 {
		t.Fatalf("result sizes wrong")
	}
	if tau := KendallTau(res.Scores, latent); tau < 0.95 {
		t.Errorf("tau = %.3f", tau)
	}
	if !res.StrictlyMonotone() {
		t.Errorf("fitted curve must be strictly monotone")
	}
	if ev := res.ExplainedVariance(); ev < 0.8 {
		t.Errorf("explained variance %.3f", ev)
	}
	// Positions are a permutation of 1..n.
	seen := make(map[int]bool)
	for _, p := range res.Positions {
		if p < 1 || p > 120 || seen[p] {
			t.Fatalf("positions are not a permutation: %d", p)
		}
		seen[p] = true
	}
	// Control points: 4 rows of dimension 2.
	cp := res.ControlPoints()
	if len(cp) != 4 || len(cp[0]) != 2 {
		t.Errorf("control points shape %dx%d", len(cp), len(cp[0]))
	}
	// Out-of-sample scoring works and respects dominance.
	hi := res.Score([]float64{10, -10})
	lo := res.Score([]float64{-10, 10})
	if hi <= lo {
		t.Errorf("dominating observation must outscore dominated one: %v vs %v", hi, lo)
	}
}

func TestRankErrors(t *testing.T) {
	if _, err := Rank(nil, Config{Alpha: MustDirection(1)}); err == nil {
		t.Errorf("empty rows should error")
	}
	if _, err := Rank([][]float64{{1, 2}, {3, 4}}, Config{}); err == nil {
		t.Errorf("missing alpha should error")
	}
}

func TestValidate(t *testing.T) {
	alpha := MustDirection(1, 1)
	if err := Validate([][]float64{{1, 2}, {3, 4}}, alpha); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	if err := Validate(nil, alpha); err == nil {
		t.Errorf("empty table accepted")
	}
	if err := Validate([][]float64{{1}}, alpha); err == nil {
		t.Errorf("ragged table accepted")
	}
	if err := Validate([][]float64{{1, 2}}, Direction{0, 1}); err == nil {
		t.Errorf("bad alpha accepted")
	}
	err := Validate([][]float64{{1, 2}, {3, math.NaN()}}, alpha)
	if err == nil {
		t.Errorf("NaN entry accepted")
	} else if !strings.Contains(err.Error(), "row 1") {
		t.Errorf("NaN error %q does not name the offending row", err)
	}
	if err := Validate([][]float64{{math.Inf(-1), 2}}, alpha); err == nil {
		t.Errorf("Inf entry accepted")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if _, err := NewDirection(1, 0); err == nil {
		t.Errorf("invalid direction accepted")
	}
	a := Ascending(3)
	if a.Dim() != 3 {
		t.Errorf("Ascending dim = %d", a.Dim())
	}
	if SpearmanRho([]float64{1, 2, 3}, []float64{1, 2, 3}) != 1 {
		t.Errorf("SpearmanRho re-export broken")
	}
	if got := RankFromScores([]float64{0.1, 0.9}); got[1] != 1 {
		t.Errorf("RankFromScores re-export broken")
	}
}

// TestRankFromScoresTiesAndNaN pins the documented ranking rule: ties in
// index order, -0 tied with +0, NaN after every number in index order.
func TestRankFromScoresTiesAndNaN(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 0.5, math.Copysign(0, -1), 0.5, nan, 0, math.Inf(-1)}
	want := []int{6, 1, 3, 2, 7, 4, 5}
	got := RankFromScores(scores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RankFromScores(%v) = %v, want %v", scores, got, want)
		}
	}
}

func TestFitAdvanced(t *testing.T) {
	rows, _, _ := dataset.BezierCloud(MustDirection(1, 1), 80, 0.02, 56)
	m, err := Fit(rows, Options{Alpha: MustDirection(1, 1), Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Curve.Degree() != 2 {
		t.Errorf("degree option not honoured")
	}
}

func TestRankFeaturesAndSelect(t *testing.T) {
	rows, _, _ := dataset.BezierCloud(MustDirection(1, 1), 100, 0.02, 57)
	// Duplicate the first column.
	aug := make([][]float64, len(rows))
	for i, r := range rows {
		aug[i] = append(append([]float64{}, r...), r[0])
	}
	alpha := MustDirection(1, 1, 1)
	reports, err := RankFeatures(aug, []string{"a", "b", "a2"}, Config{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("want 3 reports")
	}
	for _, r := range reports {
		if math.IsNaN(r.DropTau) || math.IsNaN(r.Curvature) {
			t.Errorf("report has NaN: %+v", r)
		}
	}
	chosen, err := SelectFeatures(aug, Config{Alpha: alpha}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) >= 3 {
		t.Errorf("duplicate column should be dropped, kept %v", chosen)
	}
}

func TestCrossValidateFacade(t *testing.T) {
	rows, _ := dataset.SCurve(80, 0.02, 606)
	cv, err := CrossValidate(rows, Config{Alpha: MustDirection(1, 1)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 4 {
		t.Fatalf("want 4 folds, got %d", len(cv.Folds))
	}
	if cv.MeanTau < 0.85 {
		t.Errorf("MeanTau = %.3f", cv.MeanTau)
	}
	if _, err := CrossValidate(rows, Config{Alpha: MustDirection(1, 1)}, 1); err == nil {
		t.Errorf("one fold should error")
	}
}
