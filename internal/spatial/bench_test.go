package spatial

import (
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/mathx"
)

// populated builds an index with n uniformly distributed entries.
func populated(n int, seed uint64) (*Index, []geo.Point) {
	rng := mathx.NewRNG(seed)
	ix := NewIndex(bounds(), n)
	pts := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, pts[i])
	}
	return ix, pts
}

// BenchmarkIndexNearest is the zero-alloc claim for the ring-scan hot path:
// at steady state a Nearest query touches only dense bucket storage and the
// reused cell scratch, so allocs/op must be 0.
func BenchmarkIndexNearest(b *testing.B) {
	ix, pts := populated(10000, 42)
	// One warm-up query grows the scratch buffer to its steady-state size.
	ix.Nearest(geo.Pt(50, 50), 100, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pts[i%len(pts)]
		if id, _ := ix.Nearest(q, 20, nil, nil); id < 0 {
			b.Fatal("no neighbour found")
		}
	}
}

// BenchmarkIndexWithin measures the range-scan path OPT and GR rely on; it
// must also be allocation-free once the destination slice has grown.
func BenchmarkIndexWithin(b *testing.B) {
	ix, pts := populated(10000, 43)
	dst := ix.Within(geo.Pt(50, 50), 10, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.Within(pts[i%len(pts)], 10, dst[:0])
	}
	_ = dst
}

// BenchmarkIndexInsertRemove measures the churn path SimpleGreedy exercises
// on every arrival (insert the newcomer, remove the matched counterpart).
func BenchmarkIndexInsertRemove(b *testing.B) {
	ix, pts := populated(10000, 44)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(pts)
		ix.Remove(id)
		ix.Insert(id, pts[id])
	}
}

// BenchmarkIndexReset measures clearing a populated index for reuse.
func BenchmarkIndexReset(b *testing.B) {
	ix, pts := populated(10000, 45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reset()
		for id, p := range pts {
			ix.Insert(id, p)
		}
	}
}
