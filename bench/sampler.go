package main

import (
	"math"
	"math/bits"
	"sort"
)

// rng is splitmix64: the benchmark's only source of randomness, owned here so
// that a change to math/rand or to the repo's load generator cannot change the
// request stream a seed produces.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n) by multiply-shift; the bias is below n/2^64.
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fork derives an independent stream, e.g. one per connection.
func (r *rng) fork(i uint64) *rng { return newRNG(r.next() ^ (i+1)*0xD6E8FEB86659FD93) }

// sampler draws item indexes in [0, n): uniformly when cdf is nil, otherwise
// zipf-distributed (item i with weight 1/(i+1)^theta) by binary search in the
// cumulative table, which is exact for any theta and cheap at the table sizes
// the contended workload uses.
type sampler struct {
	n   int
	cdf []float64
}

func newSampler(n int, theta float64) *sampler {
	s := &sampler{n: n}
	if theta > 0 {
		s.cdf = make([]float64, n)
		sum := 0.0
		for i := range s.cdf {
			sum += 1 / math.Pow(float64(i+1), theta)
			s.cdf[i] = sum
		}
		for i := range s.cdf {
			s.cdf[i] /= sum
		}
	}
	return s
}

func (s *sampler) draw(r *rng) int {
	if s.cdf == nil {
		return r.intn(s.n)
	}
	i := sort.SearchFloat64s(s.cdf, r.float())
	if i >= s.n {
		i = s.n - 1
	}
	return i
}

// prob returns the probability of item i, for the chi-square self-test.
func (s *sampler) prob(i int) float64 {
	if s.cdf == nil {
		return 1 / float64(s.n)
	}
	if i == 0 {
		return s.cdf[0]
	}
	return s.cdf[i] - s.cdf[i-1]
}

// chiSquare draws n samples and returns Pearson's statistic and the degrees of
// freedom. Items are pooled into cells of at least minExpected expected draws
// so that the statistic is valid on the zipf tail.
func chiSquare(s *sampler, r *rng, n int, minExpected float64) (chi2 float64, df int) {
	return chiSquareAgainst(s, s, r, n, minExpected)
}

// chiSquareAgainst tests draws from one sampler against the probabilities of
// another.
func chiSquareAgainst(from, s *sampler, r *rng, n int, minExpected float64) (chi2 float64, df int) {
	counts := make([]int, s.n)
	for i := 0; i < n; i++ {
		counts[from.draw(r)]++
	}
	var exp, obs float64
	cells := 0
	for i := 0; i < s.n; i++ {
		exp += s.prob(i) * float64(n)
		obs += float64(counts[i])
		if exp >= minExpected || i == s.n-1 {
			chi2 += (obs - exp) * (obs - exp) / exp
			cells++
			exp, obs = 0, 0
		}
	}
	return chi2, cells - 1
}
