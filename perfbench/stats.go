package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. For
// p above one half it is a tail percentile and is refused unless at least
// minBeyond samples lie beyond its rank, so a run too short to resolve
// the tail fails loudly instead of reporting a noisy number.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, have %d of %d",
			100*p, minBeyond, n-rank, n)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// method as Python's statistics.quantiles(xs, n=4) ("exclusive"), the
// definition the benchmark's spread bound is stated in. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		// Position i*(n+1)/4 (1-based) between ranks j and j+1, with j
		// clamped to 1..n-1 and the weights left unclamped, term for term
		// as statistics.quantiles computes it.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// spread returns the interquartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("spread of samples with median 0")
	}
	return (q3 - q1) / math.Abs(m), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
