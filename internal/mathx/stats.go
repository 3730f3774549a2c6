package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 if either series is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LargestRemainderRound rounds non-negative weights to integers whose sum is
// exactly total, allocating floor shares first and distributing the
// remaining units to the largest fractional remainders. It is how expected
// per-cell counts m·Pr[i][j] are integerised into the a[i][j] the guide
// consumes without losing or inventing objects.
//
// If all weights are zero (or the slice is empty) the remainder is assigned
// to index 0 onward one unit at a time, or the function returns nil for an
// empty slice with total 0. It panics on negative total or negative weights.
func LargestRemainderRound(weights []float64, total int) []int {
	if total < 0 {
		panic("mathx: negative total")
	}
	if len(weights) == 0 {
		if total == 0 {
			return nil
		}
		panic("mathx: cannot distribute positive total over no weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("mathx: negative weight")
		}
		sum += w
	}
	out := make([]int, len(weights))
	if total == 0 {
		return out
	}
	if sum == 0 {
		// Degenerate: spread uniformly.
		for i := 0; i < total; i++ {
			out[i%len(out)]++
		}
		return out
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := w / sum * float64(total)
		fl := math.Floor(exact)
		out[i] = int(fl)
		assigned += int(fl)
		fracs[i] = frac{idx: i, rem: exact - fl}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx // deterministic tie-break
	})
	for k := 0; assigned < total; k++ {
		out[fracs[k%len(fracs)].idx]++
		assigned++
	}
	return out
}

// SolveLinear solves the dense linear system A·x = b in place using Gaussian
// elimination with partial pivoting. A is row-major n×n and is destroyed;
// b has length n and is overwritten with the solution, which is also
// returned. It returns false if the matrix is singular to working precision.
//
// The regression predictors (LR, and the ridge systems inside HP-MSI) solve
// small normal-equation systems with this.
func SolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, false
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(a[row][col]); v > best {
				best, pivot = v, row
			}
		}
		if best < 1e-12 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	for row := n - 1; row >= 0; row-- {
		s := b[row]
		for k := row + 1; k < n; k++ {
			s -= a[row][k] * b[k]
		}
		b[row] = s / a[row][row]
	}
	return b, true
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SumInts returns the sum of xs.
func SumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// SumFloats returns the sum of xs.
func SumFloats(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
