package predict

import (
	"fmt"
	"math"
)

// HPMSI is the hierarchical prediction with multi-similarity inference of
// Li et al. (GIS 2015), the paper's best-performing method and the one its
// framework adopts. The implementation follows the method's two pillars:
//
//  1. Hierarchy: areas are clustered by the similarity of their historical
//     demand profiles together with geographic proximity; predictions are
//     made at cluster level, where counts are dense enough to estimate
//     reliably, and distributed down to areas by their historical
//     within-cluster shares for that slot of day.
//  2. Multi-similarity inference: the cluster-level forecast is a learned
//     combination of similarity-based estimators — the same-day-of-week
//     historical average, the recent-activity-scaled profile, and the
//     average over weather-similar training slots — with weights fit by
//     least squares on the training window.
type HPMSI struct {
	// Clusters is the number of area clusters; 0 picks ~√areas.
	Clusters int
	// KMeansIters bounds the clustering iterations (default 25).
	KMeansIters int
	// Seed makes clustering deterministic.
	Seed uint64

	s         *Series
	trainDays int

	assign    []int // area -> cluster
	nClusters int
	// The cluster-level aggregates, each flat with the cluster index last:
	// clusterHA[(dow·Slots+slot)·k+c] is the same-dow mean of cluster
	// totals over haCount[dow] training days; clusterProfile[slot·k+c]
	// the all-days mean (for PAQ-style scaling); weatherMean[(bin·Slots+
	// slot)·k+c] the mean over the weatherCount[bin·Slots+slot] training
	// slots whose weather falls in the bin.
	clusterHA      []float64
	haCount        [7]int
	clusterProfile []float64
	weatherMean    []float64
	weatherCount   []int
	// clusterCounts[(day·Slots+slot)·k+c]: observed cluster totals over
	// the whole series (test days included — look-back uses only observed
	// past values).
	clusterCounts []float64
	// shares[slot*Areas+area]: area's historical share within its cluster
	// at this slot of day (smoothed).
	shares []float64
	// weights of the three estimators + intercept, fit on training tail.
	weights [4]float64

	// Predict's k cluster forecasts for (predDay, predSlot), computed at
	// its first area; predDay is -1 when there are none.
	predDay, predSlot int
	pred              []float64
}

// NewHPMSI creates the predictor with defaults.
func NewHPMSI() *HPMSI { return &HPMSI{KMeansIters: 25, Seed: 11} }

// Name implements Predictor.
func (h *HPMSI) Name() string { return "HP-MSI" }

const weatherBins = 4

// Fit implements Predictor.
func (h *HPMSI) Fit(s *Series, trainDays int) error {
	if trainDays < 2 || trainDays > s.Days {
		return fmt.Errorf("predict: HP-MSI trainDays %d out of range", trainDays)
	}
	h.s, h.trainDays = s, trainDays

	h.nClusters = h.Clusters
	if h.nClusters <= 0 {
		h.nClusters = int(math.Sqrt(float64(s.Areas)))
		if h.nClusters < 2 {
			h.nClusters = 2
		}
	}
	if h.nClusters > s.Areas {
		h.nClusters = s.Areas
	}
	h.cluster()
	h.buildAggregates()
	h.fitWeights()
	h.predDay, h.pred = -1, make([]float64, h.nClusters)
	return nil
}

// cluster runs k-means over per-area features: the normalised mean
// slot-of-day profile (compressed to 12 bins) plus the area's grid
// coordinates scaled to comparable magnitude — profile similarity plus
// geographic proximity.
func (h *HPMSI) cluster() {
	s := h.s
	const profBins = 12
	nf := profBins + 2
	feats := make([]float64, s.Areas*nf) // row a is feats[a*nf:(a+1)*nf]
	totals := make([]float64, s.Areas)
	// Each area's bins and total sum its counts in (day, slot) order.
	for d := 0; d < h.trainDays; d++ {
		for slot := 0; slot < s.Slots; slot++ {
			bin := slot * profBins / s.Slots
			counts := s.counts[(d*s.Slots+slot)*s.Areas:][:s.Areas]
			for a, v := range counts {
				feats[a*nf+bin] += v
				totals[a] += v
			}
		}
	}
	// Geographic coordinates: areas are row-major on an unknown grid; use
	// the index split by a square-ish width as a proxy when the caller's
	// grid shape is unknown. The profile dominates; geography only breaks
	// ties between look-alike areas.
	side := int(math.Sqrt(float64(s.Areas)))
	if side < 1 {
		side = 1
	}
	for a, total := range totals {
		f := feats[a*nf:][:nf]
		if total > 0 {
			for b := 0; b < profBins; b++ {
				f[b] /= total
			}
		}
		f[profBins] = float64(a%side) / float64(side) * 0.3
		f[profBins+1] = float64(a/side) / float64(side) * 0.3
	}
	h.assign = kmeans(feats, nf, h.nClusters, h.KMeansIters, h.Seed)
}

// buildAggregates precomputes cluster-level statistics and area shares.
func (h *HPMSI) buildAggregates() {
	s := h.s
	k := h.nClusters
	// One allocation holds every aggregate.
	slab := make([]float64, (7+1+weatherBins+s.Days)*s.Slots*k+2*s.Slots*s.Areas)
	h.clusterHA = carve(&slab, 7*s.Slots*k)
	h.haCount = [7]int{}
	h.clusterProfile = carve(&slab, s.Slots*k)
	h.weatherMean = carve(&slab, weatherBins*s.Slots*k)
	h.weatherCount = make([]int, weatherBins*s.Slots)
	// Cluster totals for every observed (day, slot), full series.
	h.clusterCounts = carve(&slab, s.Days*s.Slots*k)
	for ds := 0; ds < s.Days*s.Slots; ds++ {
		row := h.clusterCounts[ds*k:][:k]
		for a, v := range s.counts[ds*s.Areas:][:s.Areas] {
			row[h.assign[a]] += v
		}
	}
	// Accumulate training aggregates.
	areaSum := carve(&slab, s.Slots*s.Areas) // per (slot, area) mean numerator
	for d := 0; d < h.trainDays; d++ {
		dow := s.DayOfWeek(d)
		h.haCount[dow]++
		for slot := 0; slot < s.Slots; slot++ {
			wbin := weatherBin(s.Weather(d, slot))
			h.weatherCount[wbin*s.Slots+slot]++
			cc := h.clusterCounts[(d*s.Slots+slot)*k:][:k]
			ha := h.clusterHA[(dow*s.Slots+slot)*k:][:k]
			prof := h.clusterProfile[slot*k:][:k]
			wm := h.weatherMean[(wbin*s.Slots+slot)*k:][:k]
			for c, v := range cc {
				ha[c] += v
				prof[c] += v
				wm[c] += v
			}
			sum := areaSum[slot*s.Areas:][:s.Areas]
			for a, v := range s.counts[(d*s.Slots+slot)*s.Areas:][:s.Areas] {
				sum[a] += v
			}
		}
	}
	for dow, n := range h.haCount {
		if n == 0 {
			continue
		}
		ha := h.clusterHA[dow*s.Slots*k:][:s.Slots*k]
		for i := range ha {
			ha[i] /= float64(n)
		}
	}
	for slot := 0; slot < s.Slots; slot++ {
		for c := 0; c < k; c++ {
			h.clusterProfile[slot*k+c] /= float64(h.trainDays)
		}
		for b := 0; b < weatherBins; b++ {
			if n := h.weatherCount[b*s.Slots+slot]; n > 0 {
				for c := 0; c < k; c++ {
					h.weatherMean[(b*s.Slots+slot)*k+c] /= float64(n)
				}
			}
		}
	}
	// Area shares within cluster per slot, Laplace-smoothed.
	h.shares = carve(&slab, s.Slots*s.Areas)
	clusterSize := make([]int, k)
	for _, c := range h.assign {
		clusterSize[c]++
	}
	clusterTotal := make([]float64, k)
	for slot := 0; slot < s.Slots; slot++ {
		clear(clusterTotal)
		for a := 0; a < s.Areas; a++ {
			clusterTotal[h.assign[a]] += areaSum[slot*s.Areas+a]
		}
		for a := 0; a < s.Areas; a++ {
			c := h.assign[a]
			h.shares[slot*s.Areas+a] = (areaSum[slot*s.Areas+a] + 0.1) /
				(clusterTotal[c] + 0.1*float64(clusterSize[c]))
		}
	}
}

// estimators returns the three cluster-level similarity estimates for
// (day, slot, cluster).
func (h *HPMSI) estimators(day, slot, c int) (ha, recent, weather float64) {
	s := h.s
	k := h.nClusters
	dow := s.DayOfWeek(clampDay(day, s.Days))
	if h.haCount[dow] > 0 {
		ha = h.clusterHA[(dow*s.Slots+slot)*k+c]
	} else {
		ha = h.clusterProfile[slot*k+c]
	}

	// Recent-activity scaling over the last quarter-day, at cluster level.
	window := s.Slots / 4
	if window < 1 {
		window = 1
	}
	var obs, exp float64
	d, sl := day, slot
	for i := 0; i < window; i++ {
		sl--
		if sl < 0 {
			sl += s.Slots
			d--
		}
		if d < 0 {
			break
		}
		obs += h.clusterCounts[(d*s.Slots+sl)*k+c]
		exp += h.clusterProfile[sl*k+c]
	}
	recent = h.clusterProfile[slot*k+c]
	if exp > 0 {
		recent *= obs / exp
	}

	wbin := weatherBin(s.Weather(clampDay(day, s.Days), slot))
	if h.weatherCount[wbin*s.Slots+slot] > 0 {
		weather = h.weatherMean[(wbin*s.Slots+slot)*k+c]
	} else {
		weather = h.clusterProfile[slot*k+c]
	}
	return ha, recent, weather
}

// fitWeights regresses actual cluster counts on the three estimators over
// the training tail (the most recent quarter of the training window), so
// the combination adapts to how informative each similarity is for this
// city.
func (h *HPMSI) fitWeights() {
	s := h.s
	start := h.trainDays * 3 / 4
	if start < 1 {
		start = 1
	}
	var xtx [4][4]float64
	var xty [4]float64
	for d := start; d < h.trainDays; d++ {
		for slot := 0; slot < s.Slots; slot++ {
			for c := 0; c < h.nClusters; c++ {
				ha, rec, wx := h.estimators(d, slot, c)
				actual := h.clusterCounts[(d*s.Slots+slot)*h.nClusters+c]
				row := [4]float64{1, ha, rec, wx}
				for i := 0; i < 4; i++ {
					for j := 0; j < 4; j++ {
						xtx[i][j] += row[i] * row[j]
					}
					xty[i] += row[i] * actual
				}
			}
		}
	}
	a := make([][]float64, 4)
	b := make([]float64, 4)
	for i := 0; i < 4; i++ {
		a[i] = append([]float64(nil), xtx[i][:]...)
		a[i][i] += 1e-6
		b[i] = xty[i]
	}
	coef, ok := solveCopy(a, b)
	if !ok {
		h.weights = [4]float64{0, 0.34, 0.33, 0.33} // fallback: equal blend
		return
	}
	copy(h.weights[:], coef)
}

// Predict implements Predictor. The k cluster forecasts of a (day, slot)
// are computed at its first area and kept for the next ones, so Predict,
// like Fit, must not run concurrently with another call.
func (h *HPMSI) Predict(day, slot, area int) float64 {
	if day != h.predDay || slot != h.predSlot {
		for c := range h.pred {
			ha, rec, wx := h.estimators(day, slot, c)
			p := h.weights[0] + h.weights[1]*ha + h.weights[2]*rec + h.weights[3]*wx
			if p < 0 {
				p = 0
			}
			h.pred[c] = p
		}
		h.predDay, h.predSlot = day, slot
	}
	return h.pred[h.assign[area]] * h.shares[slot*h.s.Areas+area]
}

// weatherBin discretises weather intensity into weatherBins levels.
func weatherBin(w float64) int {
	b := int(w * weatherBins)
	if b < 0 {
		return 0
	}
	if b >= weatherBins {
		return weatherBins - 1
	}
	return b
}

// kmeans clusters the n rows of rows (row i is rows[i*dim:(i+1)*dim])
// into k groups with Lloyd's algorithm and deterministic seeding (k-means++
// style: farthest-point heuristic), and returns each row's group.
//
// Elkan's bounds let most rows skip the comparison with every centre:
// upper[i] bounds the distance from row i to its centre and lower[i*k+c]
// the distance to centre c, and both follow the centres' drift between
// iterations. A row keeps its centre without a scan only when the bounds
// prove that centre strictly nearest by more than margin, which is far
// above the rounding of the few dozen operations behind a bound; every
// other row is scanned exactly as Lloyd's loop scans it — the same sqDist
// values in centre order, ties to the lowest index — so the assignment is
// Lloyd's, bit for bit, down to an empty cluster's centre staying at the
// origin.
func kmeans(rows []float64, dim, k, iters int, seed uint64) []int {
	if dim == 0 {
		return nil
	}
	n := len(rows) / dim
	assign := make([]int, n)
	if n == 0 || k <= 1 {
		return assign
	}
	if k > n {
		k = n
	}
	row := func(i int) []float64 { return rows[i*dim : (i+1)*dim] }
	rng := newSmallRNG(seed)

	// The centres and their previous positions, the bounds, and per
	// centre its size, its drift and half the distance to the nearest
	// other centre.
	f := make([]float64, 2*k*dim+n+n*k+3*k)
	centers, old := carve(&f, k*dim), carve(&f, k*dim)
	upper, lower := carve(&f, n), carve(&f, n*k)
	sizes, drift, half := carve(&f, k), carve(&f, k), carve(&f, k)
	center := func(c int) []float64 { return centers[c*dim : (c+1)*dim] }

	first := int(rng.next() % uint64(n))
	copy(center(0), row(first))
	minDist := upper // free until the first scan
	for c := 0; c < k; c++ {
		if c > 0 {
			// Farthest point from current centers.
			best, bestD := 0, -1.0
			for i, d := range minDist {
				if d > bestD {
					best, bestD = i, d
				}
			}
			copy(center(c), row(best))
		}
		// (x−y)² is (y−x)², so the centre may stand on either side.
		for i0 := 0; i0 < n; i0 += 4 {
			var d [4]float64
			sqDists(center(c), rows[i0*dim:min(i0+4, n)*dim], &d)
			for i := i0; i < min(i0+4, n); i++ {
				if d := d[i-i0]; c == 0 || d < minDist[i] {
					minDist[i] = d
				}
			}
		}
	}

	// Every bound is off by far less than 1e-9 of the longest row (no
	// distance between a row and a centre, an average of rows or the
	// origin, exceeds twice that), and a 1e-9 gap keeps sqDist's order.
	longest := 0.0
	for i := 0; i < n; i++ {
		norm := 0.0
		for _, v := range row(i) {
			norm += v * v
		}
		longest = max(longest, norm)
	}
	margin := 1e-9 * math.Sqrt(longest)

	for iter := 0; iter < iters; iter++ {
		changed := false
		if iter > 0 {
			// A row within half the distance from its centre to the nearest
			// other one is nearer to its centre than to any other.
			for c := range half {
				half[c] = math.Inf(1)
			}
			for c := 0; c < k; c++ {
				for o := c + 1; o < k; o++ {
					d := math.Sqrt(sqDist(center(c), center(o))) / 2
					half[c], half[o] = min(half[c], d), min(half[o], d)
				}
			}
		}
		for i := 0; i < n; i++ {
			x, a, low := row(i), assign[i], lower[i*k:(i+1)*k]
			if iter > 0 && nearest(upper[i]+margin, half[a], a, low) {
				continue
			}
			if iter > 0 {
				upper[i] = math.Sqrt(sqDist(x, center(a)))
				if nearest(upper[i]+margin, half[a], a, low) {
					continue
				}
			}
			best, bestD := 0, math.Inf(1)
			for c0 := 0; c0 < k; c0 += 4 {
				var d [4]float64
				sqDists(x, centers[c0*dim:min(c0+4, k)*dim], &d)
				for c := c0; c < min(c0+4, k); c++ {
					if d := d[c-c0]; d < bestD {
						best, bestD = c, d
					}
					low[c] = math.Sqrt(d[c-c0])
				}
			}
			upper[i] = math.Sqrt(bestD)
			if a != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		copy(old, centers)
		clear(centers)
		clear(sizes)
		for i, c := range assign {
			sizes[c]++
			cc := center(c)
			for j, v := range row(i) {
				cc[j] += v
			}
		}
		for c, size := range sizes {
			if size == 0 {
				continue
			}
			cc := center(c)
			for j := range cc {
				cc[j] /= size
			}
		}
		// The bounds follow the centres' moves.
		for c := range drift {
			drift[c] = math.Sqrt(sqDist(old[c*dim:(c+1)*dim], center(c)))
		}
		for i, a := range assign {
			upper[i] += drift[a]
			low := lower[i*k : (i+1)*k]
			for c, d := range drift {
				low[c] -= d
			}
		}
	}
	return assign
}

// nearest reports whether a row whose distance to centre a is below
// upper, and to each centre c above low[c], is strictly nearer to a than
// to any other centre; half is half the distance from a to the nearest
// other centre.
func nearest(upper, half float64, a int, low []float64) bool {
	if upper < half {
		return true
	}
	for c, l := range low {
		if c != a && !(upper < l) {
			return false
		}
	}
	return true
}

// carve cuts the next n values off *slab.
func carve(slab *[]float64, n int) []float64 {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// sqDists sets d[j] to sqDist(x, bs[j*len(x):(j+1)*len(x)]) for the up
// to four rows in bs. The four sums are independent chains, each summed
// in sqDist's order, so they match sqDist bit for bit and run side by
// side.
func sqDists(x, bs []float64, d *[4]float64) {
	n := len(x)
	if len(bs) < 4*n {
		for j := 0; j < len(bs)/n; j++ {
			d[j] = sqDist(x, bs[j*n:(j+1)*n])
		}
		return
	}
	b0, b1, b2, b3 := bs[:n], bs[n:2*n], bs[2*n:3*n], bs[3*n:4*n]
	var s0, s1, s2, s3 float64
	for i, v := range x {
		e0, e1, e2, e3 := v-b0[i], v-b1[i], v-b2[i], v-b3[i]
		s0 += e0 * e0
		s1 += e1 * e1
		s2 += e2 * e2
		s3 += e3 * e3
	}
	*d = [4]float64{s0, s1, s2, s3}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
