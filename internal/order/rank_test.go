package order

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSortByScoreDesc and refRankFromScores are the comparison-sort ranking
// the radix kernel replaced, kept verbatim as the reference: for NaN-free
// input the kernel must reproduce them exactly.
func refSortByScoreDesc(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return scores[idx[i]] > scores[idx[j]] })
	return idx
}

func refRankFromScores(scores []float64) []int {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return scores[idx[i]] > scores[idx[j]] })
	ranks := make([]int, n)
	for pos, i := range idx {
		ranks[i] = pos + 1
	}
	return ranks
}

// checkAgainstRef requires every ranking entry point to match the
// reference exactly on scores.
func checkAgainstRef(t *testing.T, name string, scores []float64) {
	t.Helper()
	wantRank := refRankFromScores(scores)
	if got := RankFromScores(scores); !slices.Equal(got, wantRank) {
		t.Fatalf("%s: RankFromScores differs from the reference\n got %v\nwant %v", name, head(got), head(wantRank))
	}
	// RankInto must overwrite stale contents, with and without spare
	// capacity.
	stale := make([]int, len(scores), len(scores)+3)
	for i := range stale {
		stale[i] = -7
	}
	if got := RankInto(stale, scores); !slices.Equal(got, wantRank) {
		t.Fatalf("%s: RankInto(reused dst) differs from the reference", name)
	}
	if got := RankInto(make([]int, 0, 1), scores); !slices.Equal(got, wantRank) {
		t.Fatalf("%s: RankInto(short dst) differs from the reference", name)
	}
	wantIdx := refSortByScoreDesc(scores)
	if got := SortByScoreDesc(scores); !slices.Equal(got, wantIdx) {
		t.Fatalf("%s: SortByScoreDesc differs from the reference\n got %v\nwant %v", name, head(got), head(wantIdx))
	}
}

func head(v []int) []int {
	if len(v) > 20 {
		return v[:20]
	}
	return v
}

// diffSizes covers the empty and single inputs, both sides of the
// insertion/radix cutoff, and sizes well into the radix path.
var diffSizes = []int{0, 1, 2, smallRank - 1, smallRank, smallRank + 1, 64, 1000, 10000}

// scoreShapes generate inputs that stress different parts of the kernel.
var scoreShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()
		}
		return s
	}},
	{"heavy-ties", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(rng.Intn(4)) / 4
		}
		return s
	}},
	{"all-equal", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.5
		}
		return s
	}},
	{"signed-zeros", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = math.Copysign(0, -1)
			case 1:
				s[i] = 0
			case 2:
				s[i] = math.SmallestNonzeroFloat64
			default:
				s[i] = -math.SmallestNonzeroFloat64
			}
		}
		return s
	}},
	{"negatives", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64() * 10
		}
		return s
	}},
	{"binades", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			v := math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
			if rng.Intn(2) == 0 {
				v = -v
			}
			s[i] = v
		}
		return s
	}},
	{"extremes", func(rng *rand.Rand, n int) []float64 {
		pool := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1), 1, -1}
		s := make([]float64, n)
		for i := range s {
			s[i] = pool[rng.Intn(len(pool))]
		}
		return s
	}},
	{"sorted-desc", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}},
}

func TestRankKernelMatchesReference(t *testing.T) {
	for _, shape := range scoreShapes {
		for _, n := range diffSizes {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				checkAgainstRef(t, fmt.Sprintf("%s/n=%d/seed=%d", shape.name, n, seed), shape.gen(rng, n))
			}
		}
	}
}

// TestRankKernelNaN pins the NaN rule: NaN ranks after every number, NaNs
// in index order, and the numbers keep the reference order among
// themselves.
func TestRankKernelNaN(t *testing.T) {
	nan := math.NaN()
	if got, want := RankFromScores([]float64{nan, 0.2, nan, math.Inf(-1), 0.9}), []int{4, 2, 5, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("RankFromScores = %v, want %v", got, want)
	}
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	for _, n := range diffSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		scores := make([]float64, n)
		var nums, nans []int
		for i := range scores {
			switch rng.Intn(5) {
			case 0:
				scores[i] = nan
			case 1:
				scores[i] = negNaN
			default:
				scores[i] = rng.NormFloat64()
			}
			if math.IsNaN(scores[i]) {
				nans = append(nans, i)
			} else {
				nums = append(nums, i)
			}
		}
		numScores := make([]float64, len(nums))
		for k, i := range nums {
			numScores[k] = scores[i]
		}
		var want []int
		for _, k := range refSortByScoreDesc(numScores) {
			want = append(want, nums[k])
		}
		want = append(want, nans...)
		got := SortByScoreDesc(scores)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortByScoreDesc = %v, want %v", n, head(got), head(want))
		}
		ranks := RankFromScores(scores)
		for pos, i := range got {
			if ranks[i] != pos+1 {
				t.Fatalf("n=%d: rank of %d = %d, want %d", n, i, ranks[i], pos+1)
			}
		}
	}
}

func TestRankIntoNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, n := range []int{8, 10000} {
		scores := scoreShapes[0].gen(rand.New(rand.NewSource(1)), n)
		dst := make([]int, n)
		RankInto(dst, scores) // warm the scratch pool
		if a := testing.AllocsPerRun(20, func() { RankInto(dst, scores) }); a != 0 {
			t.Errorf("n=%d: RankInto allocates %.0f times per call, want 0", n, a)
		}
	}
}

func BenchmarkRankFromScores(b *testing.B) {
	for _, n := range []int{8, 10000} {
		scores := scoreShapes[0].gen(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RankFromScores(scores)
			}
		})
	}
}
