// Package order implements the total order on multi-attribute observations
// defined by Eq. 1–3 of the paper (a direction vector α with entries ±1
// marking benefit and cost indicators), Pareto-style dominance tests used by
// the strict-monotonicity meta-rule, and the rank-correlation metrics
// (Kendall τ, Spearman ρ, Spearman footrule) used to compare ranking lists
// across models.
package order

import (
	"fmt"
	"math"

	"rpcrank/internal/frame"
)

// Direction is the α vector of Eq. 3: one entry per attribute, +1 when a
// larger value is better (the attribute belongs to E) and −1 when a smaller
// value is better (the attribute belongs to F).
type Direction []float64

// NewDirection builds a Direction from a list of signs, validating every
// entry is ±1.
func NewDirection(signs ...float64) (Direction, error) {
	if len(signs) == 0 {
		return nil, fmt.Errorf("order: direction must have at least one attribute")
	}
	for i, s := range signs {
		if s != 1 && s != -1 {
			return nil, fmt.Errorf("order: direction[%d] = %v, must be +1 or -1", i, s)
		}
	}
	return Direction(signs), nil
}

// MustDirection is NewDirection that panics on error.
func MustDirection(signs ...float64) Direction {
	d, err := NewDirection(signs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Ascending returns the all-benefit direction (1,1,...,1) of length d.
func Ascending(d int) Direction {
	out := make(Direction, d)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Dim returns the number of attributes.
func (a Direction) Dim() int { return len(a) }

// Validate checks every entry is ±1 and the direction is non-empty.
func (a Direction) Validate() error {
	_, err := NewDirection(a...)
	return err
}

// Dominates reports whether x ⪯ y under the α-order of Eq. 1: for every
// benefit attribute x_j ≤ y_j and every cost attribute x_j ≥ y_j. Equal
// points dominate each other (the order is reflexive).
func (a Direction) Dominates(x, y []float64) bool {
	a.checkDims(x, y)
	for j, s := range a {
		if s*(y[j]-x[j]) < 0 {
			return false
		}
	}
	return true
}

// StrictlyDominates reports x ⪯ y with x ≠ y.
func (a Direction) StrictlyDominates(x, y []float64) bool {
	if !a.Dominates(x, y) {
		return false
	}
	for j := range x {
		if x[j] != y[j] {
			return true
		}
	}
	return false
}

// Comparable reports whether x and y are ordered either way under α.
// (The paper treats the α-order as total on the idealised curve; on raw
// noisy data two points can be incomparable, and the strict-monotonicity
// meta-rule only constrains comparable pairs.)
func (a Direction) Comparable(x, y []float64) bool {
	return a.Dominates(x, y) || a.Dominates(y, x)
}

func (a Direction) checkDims(x, y []float64) {
	if len(x) != len(a) || len(y) != len(a) {
		panic(fmt.Sprintf("order: dimension mismatch: alpha %d, x %d, y %d", len(a), len(x), len(y)))
	}
}

// Orient maps a raw observation into "benefit space": cost attributes are
// negated so that componentwise ≤ agrees with the α-order. Useful for
// models (like first PCA orientation) that assume all-ascending data.
func (a Direction) Orient(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, s := range a {
		out[j] = s * x[j]
	}
	return out
}

// ValidateRows checks that rows form a non-empty rectangular table of
// width d whose entries are all finite. NaN and ±Inf values would silently
// poison the normaliser and the alternating fit, so they are rejected here
// with a per-row error. Messages carry no package prefix: callers (the
// public Validate, the server input path) wrap them with their own.
func ValidateRows(rows [][]float64, d int) error {
	if len(rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for i, row := range rows {
		if len(row) != d {
			return fmt.Errorf("row %d has %d attributes, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return fmt.Errorf("row %d attribute %d is NaN", i, j)
			}
			if math.IsInf(v, 0) {
				return fmt.Errorf("row %d attribute %d is infinite", i, j)
			}
		}
	}
	return nil
}

// ValidateFrame is ValidateRows for a contiguous frame: the frame already
// guarantees rectangularity, so only the width match and the finiteness of
// every entry are checked, in one pass over the flat backing array. Error
// messages match ValidateRows exactly — the server's fast and fallback
// decode paths must report identically.
func ValidateFrame(f *frame.Frame, d int) error {
	if f == nil || f.N() == 0 {
		return fmt.Errorf("no rows")
	}
	if f.Dim() != d {
		return fmt.Errorf("row %d has %d attributes, want %d", 0, f.Dim(), d)
	}
	for i := 0; i < f.N(); i++ {
		for j, v := range f.Row(i) {
			if math.IsNaN(v) {
				return fmt.Errorf("row %d attribute %d is NaN", i, j)
			}
			if math.IsInf(v, 0) {
				return fmt.Errorf("row %d attribute %d is infinite", i, j)
			}
		}
	}
	return nil
}

// ViolatedPairs counts the pairs (i,j) where x_i strictly dominates x_j
// under α (so i should score strictly lower) but scores[i] >= scores[j].
// It is the empirical strict-monotonicity defect of a scoring: zero means
// the scoring is order-preserving on the sample. The second return value is
// the number of strictly comparable pairs examined.
func ViolatedPairs(alpha Direction, xs [][]float64, scores []float64) (violations, comparable int) {
	n := len(xs)
	if len(scores) != n {
		panic(fmt.Sprintf("order: ViolatedPairs scores length %d want %d", len(scores), n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if alpha.StrictlyDominates(xs[i], xs[j]) {
				comparable++
				if scores[i] >= scores[j] {
					violations++
				}
			}
		}
	}
	return violations, comparable
}
