package spatial

import (
	"math"
	"sort"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/mathx"
)

func bounds() geo.Rect { return geo.NewRect(0, 0, 100, 100) }

func TestInsertRemoveLen(t *testing.T) {
	ix := NewIndex(bounds(), 10)
	ix.Insert(1, geo.Pt(5, 5))
	ix.Insert(2, geo.Pt(50, 50))
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	ix.Remove(1)
	if ix.Len() != 1 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	ix.Remove(1) // absent: no-op
	if ix.Len() != 1 {
		t.Fatalf("Len after double remove = %d", ix.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert should panic")
		}
	}()
	ix.Insert(2, geo.Pt(1, 1))
}

func TestNearestBasic(t *testing.T) {
	ix := NewIndex(bounds(), 10)
	ix.Insert(1, geo.Pt(10, 10))
	ix.Insert(2, geo.Pt(20, 10))
	ix.Insert(3, geo.Pt(90, 90))
	id, d := ix.Nearest(geo.Pt(12, 10), 1000, nil, nil)
	if id != 1 || math.Abs(d-2) > 1e-9 {
		t.Errorf("Nearest = (%d, %v), want (1, 2)", id, d)
	}
	// maxDist excludes everything.
	if id, _ := ix.Nearest(geo.Pt(0, 0), 5, nil, nil); id != -1 {
		t.Errorf("Nearest within 5 = %d, want -1", id)
	}
	// accept filter skips the closest.
	id, _ = ix.Nearest(geo.Pt(12, 10), 1000, nil, func(id int) bool { return id != 1 })
	if id != 2 {
		t.Errorf("filtered Nearest = %d, want 2", id)
	}
	// Empty index.
	empty := NewIndex(bounds(), 1)
	if id, _ := empty.Nearest(geo.Pt(1, 1), 10, nil, nil); id != -1 {
		t.Error("empty index should return -1")
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(77)
	ix := NewIndex(bounds(), 200)
	type entry struct {
		id int
		p  geo.Point
	}
	var entries []entry
	for i := 0; i < 300; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, p)
		entries = append(entries, entry{i, p})
	}
	for trial := 0; trial < 200; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		maxD := rng.Float64() * 60
		// Brute force.
		wantID, wantD := -1, math.Inf(1)
		for _, e := range entries {
			d := q.Dist(e.p)
			if d <= maxD && d < wantD {
				wantID, wantD = e.id, d
			}
		}
		gotID, gotD := ix.Nearest(q, maxD, nil, nil)
		if gotID != wantID {
			t.Fatalf("trial %d: Nearest = %d (%v), want %d (%v)", trial, gotID, gotD, wantID, wantD)
		}
		if wantID != -1 && math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("trial %d: dist %v, want %v", trial, gotD, wantD)
		}
	}
}

func TestNearestAfterRemovals(t *testing.T) {
	rng := mathx.NewRNG(13)
	ix := NewIndex(bounds(), 100)
	live := map[int]geo.Point{}
	for i := 0; i < 200; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, p)
		live[i] = p
	}
	// Remove half.
	for i := 0; i < 200; i += 2 {
		ix.Remove(i)
		delete(live, i)
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		wantID, wantD := -1, math.Inf(1)
		for id, p := range live {
			if d := q.Dist(p); d < wantD {
				wantID, wantD = id, d
			}
		}
		gotID, _ := ix.Nearest(q, math.Inf(1), nil, nil)
		if gotID != wantID {
			t.Fatalf("trial %d: got %d want %d", trial, gotID, wantID)
		}
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(31)
	ix := NewIndex(bounds(), 150)
	pts := make(map[int]geo.Point)
	for i := 0; i < 250; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, p)
		pts[i] = p
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		radius := rng.Float64() * 40
		got := ix.Within(q, radius, nil)
		var want []int
		for id, p := range pts {
			if q.Dist(p) <= radius {
				want = append(want, id)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: |got|=%d |want|=%d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
	if res := ix.Within(geo.Pt(0, 0), -1, nil); len(res) != 0 {
		t.Error("negative radius should return nothing")
	}
}

func TestForEach(t *testing.T) {
	ix := NewIndex(bounds(), 4)
	ix.Insert(1, geo.Pt(1, 1))
	ix.Insert(2, geo.Pt(2, 2))
	ix.Insert(3, geo.Pt(3, 3))
	seen := map[int]bool{}
	ix.ForEach(func(id int, p geo.Point) bool {
		seen[id] = true
		return true
	})
	if len(seen) != 3 {
		t.Errorf("ForEach visited %d entries", len(seen))
	}
	count := 0
	ix.ForEach(func(id int, p geo.Point) bool {
		count++
		return false // stop immediately
	})
	if count != 1 {
		t.Errorf("early stop visited %d entries", count)
	}
}

func TestNearestAcceptRejectsEverything(t *testing.T) {
	ix := NewIndex(bounds(), 10)
	ix.Insert(1, geo.Pt(10, 10))
	ix.Insert(2, geo.Pt(20, 20))
	ix.Insert(3, geo.Pt(30, 30))
	id, d := ix.Nearest(geo.Pt(15, 15), math.Inf(1), nil, func(int) bool { return false })
	if id != -1 || d != 0 {
		t.Errorf("Nearest with all-rejecting accept = (%d, %v), want (-1, 0)", id, d)
	}
	// Rejected entries must survive the scan.
	if ix.Len() != 3 {
		t.Errorf("Len after rejected scan = %d, want 3", ix.Len())
	}
	if id, _ := ix.Nearest(geo.Pt(15, 15), math.Inf(1), nil, nil); id == -1 {
		t.Error("entries lost after all-rejecting scan")
	}
}

// TestNearestRemovesDeadEntries: a dead entry within maxDist leaves the
// index on the first search that passes over it, even one farther than
// the winner; a dead entry beyond maxDist, and a merely refused one, stay.
func TestNearestRemovesDeadEntries(t *testing.T) {
	ix := NewIndex(bounds(), 10)
	ix.Insert(1, geo.Pt(50, 50))
	ix.Insert(2, geo.Pt(51, 50))
	ix.Insert(3, geo.Pt(52, 50))
	ix.Insert(4, geo.Pt(50, 53))
	ix.Insert(5, geo.Pt(50, 51))
	dead := func(id int) bool { return id == 3 || id == 4 }
	id, _ := ix.Nearest(geo.Pt(50, 50), 2.5, dead, func(id int) bool { return id != 5 })
	if id != 1 {
		t.Fatalf("Nearest = %d, want 1", id)
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d after the search, want 4 (only dead id 3 within reach removed)", ix.Len())
	}
	if id, _ := ix.Nearest(geo.Pt(52, 50), 0.5, nil, nil); id != -1 {
		t.Fatalf("removed dead id 3 still found: %d", id)
	}
	if id, _ := ix.Nearest(geo.Pt(50, 53), 0.5, nil, nil); id != 4 {
		t.Fatalf("dead id 4 beyond maxDist was removed: Nearest = %d", id)
	}
}

func TestWithinAtBucketBoundaries(t *testing.T) {
	// bounds() is 100×100; an index sized for 400 entries gets a 10×10
	// bucket grid with 10-unit cells, so multiples of 10 sit exactly on
	// bucket boundaries.
	ix := NewIndex(bounds(), 400)
	on := []geo.Point{
		geo.Pt(10, 10), geo.Pt(20, 10), geo.Pt(10, 20),
		geo.Pt(0, 0), geo.Pt(50, 50),
	}
	for i, p := range on {
		ix.Insert(i, p)
	}
	// Query from a boundary point with a radius that lands other boundary
	// points exactly on the circle: Within uses <=, so they must appear.
	got := ix.Within(geo.Pt(10, 10), 10, nil)
	sort.Ints(got)
	want := []int{0, 1, 2} // (10,10) itself plus (20,10) and (10,20) at exactly 10
	if len(got) != len(want) {
		t.Fatalf("Within at boundary = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within at boundary = %v, want %v", got, want)
		}
	}
	// Nearest from a boundary point must see entries in the adjacent cell.
	if id, _ := ix.Nearest(geo.Pt(10, 10), 0.5, nil, nil); id != 0 {
		t.Errorf("Nearest at boundary = %d, want 0", id)
	}
}

func TestReset(t *testing.T) {
	ix := NewIndex(bounds(), 50)
	for i := 0; i < 50; i++ {
		ix.Insert(i, geo.Pt(float64(i*2), float64(i)))
	}
	ix.Reset()
	if ix.Len() != 0 {
		t.Fatalf("Len after Reset = %d", ix.Len())
	}
	if id, _ := ix.Nearest(geo.Pt(50, 25), math.Inf(1), nil, nil); id != -1 {
		t.Errorf("Nearest on reset index = %d, want -1", id)
	}
	if got := ix.Within(geo.Pt(50, 25), 1000, nil); len(got) != 0 {
		t.Errorf("Within on reset index = %v, want empty", got)
	}
	// Every id must be re-insertable after Reset, and queries must work.
	for i := 0; i < 50; i++ {
		ix.Insert(i, geo.Pt(float64(i*2), float64(i)))
	}
	if ix.Len() != 50 {
		t.Fatalf("Len after re-insert = %d", ix.Len())
	}
	if id, _ := ix.Nearest(geo.Pt(0, 0), 1, nil, nil); id != 0 {
		t.Errorf("Nearest after Reset+re-insert = %d, want 0", id)
	}
	// Reset of an empty index is a no-op.
	empty := NewIndex(bounds(), 4)
	empty.Reset()
	if empty.Len() != 0 {
		t.Error("Reset of empty index changed Len")
	}
}

func TestQueriesDoNotAllocateAtSteadyState(t *testing.T) {
	rng := mathx.NewRNG(5)
	ix := NewIndex(bounds(), 500)
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, pts[i])
	}
	// Warm up the scratch buffer.
	ix.Nearest(geo.Pt(50, 50), 100, nil, nil)
	dst := ix.Within(geo.Pt(50, 50), 30, nil)

	if allocs := testing.AllocsPerRun(100, func() {
		ix.Nearest(geo.Pt(37, 61), 25, nil, nil)
	}); allocs != 0 {
		t.Errorf("Nearest allocates %.1f objects/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		dst = ix.Within(geo.Pt(37, 61), 25, dst[:0])
	}); allocs != 0 {
		t.Errorf("Within allocates %.1f objects/op at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ix.Remove(7)
		ix.Insert(7, pts[7])
	}); allocs != 0 {
		t.Errorf("Remove+Insert allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

func TestNegativeIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative id insert should panic")
		}
	}()
	NewIndex(bounds(), 4).Insert(-1, geo.Pt(1, 1))
}

func TestPointsOutsideBounds(t *testing.T) {
	// Entries outside the nominal bounds still work (clamped buckets).
	ix := NewIndex(bounds(), 10)
	ix.Insert(1, geo.Pt(-50, -50))
	ix.Insert(2, geo.Pt(150, 150))
	id, _ := ix.Nearest(geo.Pt(-40, -40), 1000, nil, nil)
	if id != 1 {
		t.Errorf("Nearest = %d, want 1", id)
	}
	got := ix.Within(geo.Pt(140, 140), 20, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Within = %v, want [2]", got)
	}
}

// TestRemap: ids are rewritten in place, negatives removed, and the
// re-keyed index answers queries and O(1) removes exactly as a freshly
// built one would.
func TestRemap(t *testing.T) {
	rng := mathx.NewRNG(7)
	ix := NewIndex(bounds(), 64)
	const n = 200
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		ix.Insert(i, pts[i])
	}
	// Retire every third id; survivors compact densely in order.
	m := make([]int32, n)
	next := int32(0)
	for i := range m {
		if i%3 == 0 {
			m[i] = -1
			continue
		}
		m[i] = next
		next++
	}
	ix.Remap(m)
	if ix.Len() != int(next) {
		t.Fatalf("Len = %d after remap, want %d", ix.Len(), next)
	}
	// Reference index built directly in the new id space.
	want := NewIndex(bounds(), 64)
	for old, nid := range m {
		if nid >= 0 {
			want.Insert(int(nid), pts[old])
		}
	}
	for trial := 0; trial < 50; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		gotID, gotD := ix.Nearest(q, 40, nil, nil)
		wantID, wantD := want.Nearest(q, 40, nil, nil)
		if gotID != wantID || math.Abs(gotD-wantD) > 1e-12 {
			t.Fatalf("Nearest(%v) = (%d, %v), want (%d, %v)", q, gotID, gotD, wantID, wantD)
		}
	}
	// Removes through the rebuilt id tables behave.
	ix.Remove(0)
	want.Remove(0)
	if ix.Len() != want.Len() {
		t.Fatalf("Len after remove = %d, want %d", ix.Len(), want.Len())
	}
	got := sort.IntSlice(ix.Within(geo.Pt(50, 50), 200, nil))
	exp := sort.IntSlice(want.Within(geo.Pt(50, 50), 200, nil))
	sort.Sort(got)
	sort.Sort(exp)
	if len(got) != len(exp) {
		t.Fatalf("Within sizes differ: %d vs %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("Within[%d] = %d, want %d", i, got[i], exp[i])
		}
	}
}
