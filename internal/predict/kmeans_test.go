package predict

import (
	"math"
	"slices"
	"testing"
)

// kmeansLloyd is the plain Lloyd's loop kmeans replaced, kept as the
// reference it must agree with assignment for assignment: the same
// farthest-point seeding, every point compared with every centre in
// centre order (ties to the lowest index), centres recomputed in row
// order, and an empty cluster's centre left at the origin.
func kmeansLloyd(rows [][]float64, k, iters int, seed uint64) []int {
	n := len(rows)
	assign := make([]int, n)
	if n == 0 || k <= 1 {
		return assign
	}
	if k > n {
		k = n
	}
	rng := newSmallRNG(seed)

	centers := make([][]float64, k)
	first := int(rng.next() % uint64(n))
	centers[0] = append([]float64(nil), rows[first]...)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(rows[i], centers[0])
	}
	for c := 1; c < k; c++ {
		// Farthest point from current centers.
		best, bestD := 0, -1.0
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		centers[c] = append([]float64(nil), rows[best]...)
		for i := range minDist {
			if d := sqDist(rows[i], centers[c]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	counts := make([]int, k)
	for iter := 0; iter < iters; iter++ {
		changed := false
		for i, row := range rows {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDist(row, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
			counts[c] = 0
		}
		for i, row := range rows {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				centers[c][j] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			for j := range centers[c] {
				centers[c][j] /= float64(counts[c])
			}
		}
	}
	return assign
}

// kmeansOf runs kmeans on rows given as one slice per point.
func kmeansOf(rows [][]float64, k, iters int, seed uint64) []int {
	if len(rows) == 0 {
		return []int{}
	}
	return kmeans(slices.Concat(rows...), len(rows[0]), k, iters, seed)
}

// kmeansInstance draws one clustering problem from seed. Its kinds cover
// what the bounds must not get wrong: small integer rows (exact distance
// ties, duplicate rows), fewer distinct rows than centres (duplicate
// seeds, so a cluster starts empty and its centre drops to the origin),
// well-separated blobs, uniform noise, and HP-MSI's own shape (14
// features, one row per area, k ≈ √n).
func kmeansInstance(seed uint64) (rows [][]float64, k, iters int) {
	rng := newSmallRNG(seed)
	pick := func(n int) int { return int(rng.next() % uint64(n)) }
	n, dim := pick(61), 1+pick(6)
	k, iters = 1+pick(n+4), 1+pick(30)
	kind := pick(5)
	switch kind {
	case 0: // HP-MSI's features: a profile summing to 1, scaled coordinates.
		n, dim = 100+pick(400), 14
		k = int(math.Sqrt(float64(n)))
		iters = 25
	case 3: // Fewer distinct rows than centres.
		k = 2 + pick(8)
		n = k + pick(3*k)
	}
	centres := make([][]float64, 1+pick(6))
	for c := range centres {
		centres[c] = make([]float64, dim)
		for j := range centres[c] {
			centres[c][j] = 10 * rng.float()
		}
	}
	rows = make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		switch kind {
		case 0:
			total := 0.0
			for j := 0; j < 12; j++ {
				row[j] = rng.float()
				total += row[j]
			}
			for j := 0; j < 12; j++ {
				row[j] /= total
			}
			side := int(math.Sqrt(float64(n)))
			row[12] = float64(i%side) / float64(side) * 0.3
			row[13] = float64(i/side) / float64(side) * 0.3
		case 1: // Small integers: ties and duplicates everywhere.
			for j := range row {
				row[j] = float64(pick(3))
			}
		case 2: // Blobs around a few centres.
			c := centres[pick(len(centres))]
			for j := range row {
				row[j] = c[j] + rng.float() - 0.5
			}
		case 3:
			if i >= 2 && pick(4) > 0 {
				copy(row, rows[pick(2)])
				break
			}
			for j := range row {
				row[j] = float64(pick(2))
			}
		default:
			for j := range row {
				row[j] = rng.float()
			}
		}
		if i > 0 && pick(8) == 0 { // a duplicate of an earlier row
			copy(row, rows[pick(i)])
		}
		rows[i] = row
	}
	return rows, k, iters
}

// TestKMeansMatchesLloyd: kmeans returns Lloyd's assignment exactly on
// 400 seeded instances, plus the degenerate shapes n = 0, k = 1 and
// k ≥ n, and at least one instance ends with a cluster left empty.
func TestKMeansMatchesLloyd(t *testing.T) {
	check := func(name string, rows [][]float64, k, iters int, seed uint64) []int {
		t.Helper()
		want := kmeansLloyd(rows, k, iters, seed)
		if got := kmeansOf(rows, k, iters, seed); !slices.Equal(got, want) {
			t.Fatalf("%s (n %d, k %d, iters %d): assignment\n%v\nLloyd's\n%v", name, len(rows), k, iters, got, want)
		}
		return want
	}
	check("n = 0", nil, 3, 10, 1)
	check("k = 1", [][]float64{{0}, {1}, {2}}, 1, 10, 1)
	check("k > n", [][]float64{{0, 1}, {1, 0}, {1, 1}}, 5, 10, 1)
	check("k = n", [][]float64{{0, 1}, {1, 0}, {1, 1}}, 3, 10, 1)
	empty, ties := 0, 0
	for seed := uint64(1); seed <= 400; seed++ {
		rows, k, iters := kmeansInstance(seed)
		assign := check("instance", rows, k, iters, seed)
		used := make(map[int]bool)
		for _, c := range assign {
			used[c] = true
		}
		if len(rows) > 0 && len(used) < min(k, len(rows)) {
			empty++
		}
		if len(rows) > 1 && rows[0][0] == math.Trunc(rows[0][0]) {
			ties++
		}
	}
	t.Logf("%d of 400 instances end with an empty cluster, %d have integer rows", empty, ties)
	if empty == 0 || ties == 0 {
		t.Errorf("no instance ends with an empty cluster (%d) or has integer rows (%d)", empty, ties)
	}
}

// FuzzKMeans: kmeans agrees with Lloyd's loop on any small instance the
// fuzzer decodes. The first four bytes pick the dimension, k, the
// iteration bound and the seed; the rest are coordinates in [-8, 8) on a
// 1/16 grid, so distances tie often and never overflow.
func FuzzKMeans(f *testing.F) {
	f.Add([]byte{2, 3, 20, 1, 0, 0, 16, 0, 0, 16, 128, 128, 130, 128, 128, 130})
	f.Add([]byte{1, 5, 25, 7, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{3, 2, 3, 9, 10, 20, 30, 10, 20, 30, 10, 20, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dim, k, iters, seed := 1+int(data[0]%6), int(data[1]%16), int(data[2]%40), uint64(data[3])
		data = data[4:]
		rows := make([][]float64, len(data)/dim)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = float64(int(data[i*dim+j])-128) / 16
			}
		}
		want := kmeansLloyd(rows, k, iters, seed)
		if got := kmeansOf(rows, k, iters, seed); !slices.Equal(got, want) {
			t.Fatalf("n %d, k %d, iters %d: assignment\n%v\nLloyd's\n%v", len(rows), k, iters, got, want)
		}
	})
}
