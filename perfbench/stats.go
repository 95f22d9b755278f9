package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a tail percentile needs beyond it
// before it is reported: with fewer, the "p95" of a run is one or two
// unlucky operations, not a property of the system.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics. ok is false when xs is
// empty or, for a percentile above the median, when fewer than minTail
// samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	if p > 50 && float64(n)*(100-p)/100 < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac, true
}

// median is the 50th percentile, 0 for no samples.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), which is how run-to-run spread is judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// spread is the interquartile distance of xs as a share of its
// median; ok is false with fewer than two samples or a zero median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}
