package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// This file generates every input the benchmark sends. All of it derives
// from the --seed value through explicitly seeded generators, so the same
// seed always yields the same rows, bodies, arrival times and model
// choices; the rpcd processes only ever see the resulting requests.

// alphaFor is the benefit/cost direction used for a d-attribute model:
// attributes alternate benefit (+1) and cost (−1), so both orientations of
// the ranking rule are exercised.
func alphaFor(d int) []float64 {
	a := make([]float64, d)
	for j := range a {
		a[j] = 1
		if j%2 == 1 {
			a[j] = -1
		}
	}
	return a
}

// attrRows draws n observations of d attributes that share one latent
// quality t ∈ [0,1]: benefit attributes rise with t, cost attributes fall,
// each on its own scale and with independent noise — the multi-attribute
// ranking setting the paper's principal curve is fitted to.
func attrRows(rng *rand.Rand, n, d int) [][]float64 {
	alpha := alphaFor(d)
	rows := make([][]float64, n)
	for i := range rows {
		t := rng.Float64()
		r := make([]float64, d)
		for j := range r {
			scale := float64(j + 1)
			v := t
			if alpha[j] < 0 {
				v = 1 - t
			}
			r[j] = 2*scale*v*v + scale*v + 0.15*scale*rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

// rowsBody encodes rows as the score/rank request body {"rows":[[...]]},
// with every value in its shortest round-trip form (as encoding/json
// writes float64).
func rowsBody(rows [][]float64) []byte {
	b := make([]byte, 0, 16+len(rows)*len(rows[0])*20)
	b = append(b, `{"rows":[`...)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// scoreBody is one pre-generated score/rank request body together with the
// rows it carries (kept for verification).
type scoreBody struct {
	rows [][]float64
	body []byte
}

// makeBodies pre-generates count bodies of dimension d; body i carries
// rowCount(rng, i, count) rows.
func makeBodies(rng *rand.Rand, count, d int, rowCount func(r *rand.Rand, i, n int) int) []scoreBody {
	out := make([]scoreBody, count)
	for i := range out {
		rows := attrRows(rng, rowCount(rng, i, count), d)
		out[i] = scoreBody{rows: rows, body: rowsBody(rows)}
	}
	return out
}

// The row-count generators below are stratified: body i of n draws from
// the i-th of n equal-probability slices of the distribution, so the mix
// of batch sizes, and with it the work per request, is the same for every
// seed.

// uniformRows spreads n bodies evenly over the sizes lo..hi.
func uniformRows(lo, hi int) func(*rand.Rand, int, int) int {
	return func(_ *rand.Rand, i, n int) int { return lo + i*(hi-lo+1)/n }
}

// logUniformRows draws sizes on [1, hi] whose logarithm is uniform: small
// batches are common and every size up to hi occurs.
func logUniformRows(hi int) func(*rand.Rand, int, int) int {
	return func(r *rand.Rand, i, n int) int {
		u := (float64(i) + r.Float64()) / float64(n)
		return int(math.Exp(u * math.Log(float64(hi)+1)))
	}
}

// poissonArrivals returns the due times of a Poisson arrival stream at the
// given rate (requests per second) over [0, dur): exponential gaps, drawn
// from rng, so the schedule is fixed by the seed.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	end := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// zipfRanks draws n popularity ranks in [0, k) from a Zipf law with
// exponent s (> 1): rank 0 is the most popular.
func zipfRanks(rng *rand.Rand, n, k int, s float64) []int {
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// reuseFarShare is the share of accesses whose id was not among the last
// window distinct ids accessed before it (a first access counts as far).
// With window equal to an LRU's capacity, it is the miss share an LRU of
// that size would see on this sequence.
func reuseFarShare(ids []string, window int) float64 {
	if len(ids) == 0 {
		return 0
	}
	stack := make([]string, 0, window+1) // most recent first
	far := 0
	for _, id := range ids {
		pos := -1
		for i, s := range stack {
			if s == id {
				pos = i
				break
			}
		}
		if pos < 0 {
			far++
			if len(stack) < window {
				stack = append(stack, "")
			}
			pos = len(stack) - 1
		}
		copy(stack[1:pos+1], stack[:pos])
		stack[0] = id
	}
	return float64(far) / float64(len(ids))
}
