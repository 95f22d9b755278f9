package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{50, 2.5}, {25, 1.75}} {
		if got, ok := percentile(xs, c.p); !ok || !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, %v; want %v", xs, c.p, got, ok, c.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if med := median([]float64{7}); med != 7 {
		t.Errorf("median of one sample = %v", med)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p95 needs 200 samples, p90 needs 100.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := percentile(seq(199), 95); ok {
		t.Error("p95 of 199 samples reported; only 9.95 lie beyond it")
	}
	if v, ok := percentile(seq(200), 95); !ok || !near(v, 190.05) {
		t.Errorf("p95 of 1..200 = %v, %v; want 190.05", v, ok)
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples reported")
	}
	if _, ok := percentile(seq(100), 90); !ok {
		t.Error("p90 of 100 samples not reported")
	}
}

// opPercentile takes the median over groups of whole passes holding at
// least minTailOps operations, so one slow group does not set it.
func TestOpPercentileGroupsPasses(t *testing.T) {
	const perPass = 150 // two passes make a group of 300
	w := &window{passes: 6, ops: 6 * perPass}
	for pass := 0; pass < 6; pass++ {
		scale := 1.0
		if pass >= 4 {
			scale = 10 // the third group is slow
		}
		for i := 1; i <= perPass; i++ {
			w.opMS = append(w.opMS, scale*float64(i))
		}
	}
	// Groups one and two are two copies of 1..150: p50 = 75.5.
	if got := opPercentile(w, 50); !near(got, 75.5) {
		t.Errorf("p50 = %v, want 75.5", got)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the spread of repeated runs is judged by. Expected values were
// computed with CPython 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.1, 2.7, 3.3, 2.9, 3.0, 3.6, 2.8, 3.2, 3.05, 2.95}, 2.875, 3.225},
		{seq(11), 3, 9},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	sp, ok := spread([]float64{1, 2, 3, 4})
	if !ok || !near(sp, 2.5/2.5) {
		t.Errorf("spread(1..4) = %v, %v; want 1", sp, ok)
	}
}
