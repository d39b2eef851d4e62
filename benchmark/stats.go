package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks. sorted must be ascending
// and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailSlices is how many consecutive slices of the phase op_p95_ms is
// averaged over.
const tailSlices = 5

// slicedQuantile cuts vs, which is in time order, into n consecutive
// slices of equal count, takes the q-quantile of each and returns their
// mean. Unlike the quantile of the pooled sample, it moves in proportion
// to how much of the phase a slow spell of the machine covered: the
// pooled tail is set by the slowest tenth of the phase alone.
func slicedQuantile(vs []float64, q float64, n int) float64 {
	if len(vs) < 2*n {
		n = 1
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += quantile(sortedCopy(vs[i*len(vs)/n:(i+1)*len(vs)/n]), q)
	}
	return sum / float64(n)
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted sample; NaN when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(vs), 0.5)
}

// quartiles returns Q1, median and Q3 by the "exclusive" method, the
// one Python's statistics.quantiles(values, n=4) uses — the acceptance
// rule for this benchmark is stated in those terms, so -repeat and
// -compare compute spread the same way.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks; past either end the
		// nearest pair is extrapolated, as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadFrac is the interquartile range as a share of the median.
func spreadFrac(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
