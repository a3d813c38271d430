package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this harness prints are the ones a driver written against that
// function computes. Fewer than two samples yield the sample itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after clamping, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// center is the value the harness reports for a set of wall-clock samples:
// their mean after dropping the lowest and the highest tenth (at least one
// sample each side, from three samples up). Not the median, because the
// tool's driver polls for quiescence on a Timeout/4 ticker: wall clocks of
// deadlock runs come in clusters 12.5 ms apart, and the median of two
// clusters jumps by the whole gap when their shares cross a half, where a
// mean moves with the shares. Trimmed, so that one stalled rep does not
// carry the value.
func center(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return sum(xs) / float64(max(n, 1))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, n/10)
	return sum(s[k:n-k]) / float64(n-2*k)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile is the nearest-rank percentile p (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the tail percentiles the harness reports, in
// ascending order.
var tailPercentiles = []float64{90, 95, 99}

// highestPercentile is the highest reported percentile that still has at
// least ten samples beyond it among n samples (p95 needs 200 samples). It
// returns 50 when no tail percentile is supported: the median is always
// reported.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// movedBy is the distance between two values of one metric as a share of
// the smaller, whichever way it moved.
func movedBy(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
