package bench

import (
	"math"
	"sort"
)

// Percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN on an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// minTail is the sample-count rule: a percentile is only reported when
// at least this many samples lie beyond it.
const minTail = 10

// TailQualifies reports whether n samples leave at least ten beyond the
// p-quantile — the rule that makes p95 (not p99) the reported tail.
func TailQualifies(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail
}

// Median sorts a copy of xs and returns its 0.5-quantile (NaN when empty).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// SegmentRates splits [0, segs*segLen) into segs equal segments and
// returns each segment's rate (weight per second). at[i] is the offset in
// seconds of completion i and weight[i] what it completed.
func SegmentRates(at, weight []float64, segLen float64, segs int) []float64 {
	rates := make([]float64, segs)
	for i, t := range at {
		if s := int(t / segLen); t >= 0 && s < segs {
			rates[s] += weight[i]
		}
	}
	for i := range rates {
		rates[i] /= segLen
	}
	return rates
}

// Quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method) — the estimator the acceptance harness applies to
// ten runs — so the ledger's spreads are the ones it will compute.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
