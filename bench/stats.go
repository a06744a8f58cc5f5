package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the closest ranks (p in 0..100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so noise figures printed here match an external check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentile returns the highest of p99.9, p99, p95, p90, p75 and p50
// that leaves at least ten of n samples beyond it, or 0 when even the
// median does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		// Nearest rank; the epsilon keeps 99.9% of 10000 at 9990.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= 10 {
			return p
		}
	}
	return 0
}
