package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want) {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.SqDist(tt.q); !almostEqual(got, tt.want*tt.want) {
				t.Errorf("SqDist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Symmetry.
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		a, b := Point{clampF(ax), clampF(ay)}, Point{clampF(bx), clampF(by)}
		return almostEqual(a.Dist(b), b.Dist(a))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampF(ax), clampF(ay)}
		b := Point{clampF(bx), clampF(by)}
		c := Point{clampF(cx), clampF(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}, cfg); err != nil {
		t.Error(err)
	}
	// Identity of indiscernibles (one direction).
	if err := quick.Check(func(ax, ay float64) bool {
		a := Point{clampF(ax), clampF(ay)}
		return a.Dist(a) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

// clampF maps arbitrary quick-generated floats into a sane finite range.
func clampF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); !almostEqual(got.X, 5) || !almostEqual(got.Y, 10) {
		t.Errorf("Lerp 0.5 = %v, want (5,10)", got)
	}
	// Clamping.
	if got := a.Lerp(b, -1); got != a {
		t.Errorf("Lerp -1 = %v, want %v (clamped)", got, a)
	}
	if got := a.Lerp(b, 2); got != b {
		t.Errorf("Lerp 2 = %v, want %v (clamped)", got, b)
	}
}

func TestTravelTime(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if got := TravelTime(a, b, 5); !almostEqual(got, 1) {
		t.Errorf("TravelTime = %v, want 1", got)
	}
	if got := TravelTime(a, b, 0); !math.IsInf(got, 1) {
		t.Errorf("TravelTime with zero velocity = %v, want +Inf", got)
	}
	if got := TravelTime(a, b, -2); !math.IsInf(got, 1) {
		t.Errorf("TravelTime with negative velocity = %v, want +Inf", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(10, 20, 0, 5) // deliberately swapped corners
	if r.MinX != 0 || r.MaxX != 10 || r.MinY != 5 || r.MaxY != 20 {
		t.Fatalf("NewRect did not normalise: %+v", r)
	}
	if !almostEqual(r.Width(), 10) || !almostEqual(r.Height(), 15) {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 5}) {
		t.Error("Contains should include min corner")
	}
	if r.Contains(Point{10, 5}) {
		t.Error("Contains should exclude max edge")
	}
	c := r.Center()
	if !almostEqual(c.X, 5) || !almostEqual(c.Y, 12.5) {
		t.Errorf("Center = %v", c)
	}
	cl := r.Clamp(Point{-5, 100})
	if !r.Contains(cl) {
		t.Errorf("Clamp result %v not contained in %v", cl, r)
	}
}

func TestGridCellRoundTrip(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 50, 50), 50, 50)
	if g.NumCells() != 2500 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	for cell := 0; cell < g.NumCells(); cell += 7 {
		center := g.Center(cell)
		if got := g.CellOf(center); got != cell {
			t.Fatalf("CellOf(Center(%d)) = %d", cell, got)
		}
		rect := g.CellRect(cell)
		if !rect.Contains(center) {
			t.Fatalf("center %v of cell %d outside its rect %+v", center, cell, rect)
		}
	}
}

func TestGridCellOfClamping(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 10, 10), 5, 5)
	tests := []struct {
		p    Point
		want int
	}{
		{Point{-1, -1}, 0},
		{Point{0, 0}, 0},
		{Point{9.999, 9.999}, 24},
		{Point{10, 10}, 24},   // max corner clamps into last cell
		{Point{100, 100}, 24}, // far outside clamps
		{Point{5, 0}, 2},      // boundary between col 2 and col 2 (5/2=2.5 -> col 2)
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.want {
			t.Errorf("CellOf(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestGridQuickCellOfAlwaysValid(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 30, 20), 6, 4)
	if err := quick.Check(func(x, y float64) bool {
		c := g.CellOf(Point{clampF(x), clampF(y)})
		return c >= 0 && c < g.NumCells()
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridColRow(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 8, 6), 4, 3)
	for cell := 0; cell < g.NumCells(); cell++ {
		col, row := g.ColRow(cell)
		if row*g.Cols+col != cell {
			t.Fatalf("ColRow(%d) = (%d,%d) does not invert", cell, col, row)
		}
	}
}

func TestCellsWithinRadius(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 10, 10), 10, 10)
	// Radius 0: only the origin cell.
	cells := g.CellsWithinRadius(55, 0, nil)
	if len(cells) != 1 || cells[0] != 55 {
		t.Fatalf("radius 0 cells = %v", cells)
	}
	// Radius covering everything.
	all := g.CellsWithinRadius(0, 100, nil)
	if len(all) != g.NumCells() {
		t.Fatalf("large radius returned %d cells, want %d", len(all), g.NumCells())
	}
	// Verify against brute force for a few radii.
	for _, radius := range []float64{1, 2.5, 4} {
		got := g.CellsWithinRadius(44, radius, nil)
		var want []int
		origin := g.Center(44)
		for c := 0; c < g.NumCells(); c++ {
			if g.Center(c).Dist(origin) <= radius {
				want = append(want, c)
			}
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("radius %v: got %d cells, want %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("radius %v: got %v want %v", radius, got, want)
			}
		}
	}
	// Negative radius yields nothing.
	if cells := g.CellsWithinRadius(0, -1, nil); len(cells) != 0 {
		t.Errorf("negative radius returned %v", cells)
	}
}

// TestCellsWithinRadiusBruteForce: the bounding-box scan returns exactly
// the cells a full scan of the grid finds, in the same row-major order,
// for random origins and radii on grids with unequal cell sides —
// including radii at exact multiples of a cell side, where the box edge
// is decided.
func TestCellsWithinRadiusBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Grid{
		NewGrid(NewRect(0, 0, 100, 100), 20, 20),
		NewGrid(NewRect(-3, 7, 41, 20), 11, 7),
		NewGrid(NewRect(0, 0, 1, 1), 1, 1),
	} {
		cw, ch := g.CellSize()
		for i := 0; i < 2000; i++ {
			origin := rng.Intn(g.NumCells())
			radius := rng.Float64() * 3 * math.Max(cw, ch)
			if i%4 == 0 {
				radius = float64(rng.Intn(4)) * []float64{cw, ch}[i%8/4]
			}
			var want []int
			c := g.Center(origin)
			for cell := 0; cell < g.NumCells(); cell++ {
				if g.Center(cell).SqDist(c) <= radius*radius {
					want = append(want, cell)
				}
			}
			if got := g.CellsWithinRadius(origin, radius, nil); !slices.Equal(got, want) {
				t.Fatalf("%dx%d grid, origin %d, radius %v: %v, want %v", g.Cols, g.Rows, origin, radius, got, want)
			}
		}
	}
}

func TestRingCells(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 10, 10), 10, 10)
	p := g.Center(44) // col 4, row 4 — interior
	ring0 := g.RingCells(p, 0, nil)
	if len(ring0) != 1 || ring0[0] != 44 {
		t.Fatalf("ring 0 = %v", ring0)
	}
	ring1 := g.RingCells(p, 1, nil)
	if len(ring1) != 8 {
		t.Fatalf("interior ring 1 has %d cells, want 8: %v", len(ring1), ring1)
	}
	// Rings must be disjoint and cover the grid.
	seen := map[int]bool{}
	total := 0
	for ring := 0; ring <= g.MaxRing(); ring++ {
		for _, c := range g.RingCells(p, ring, nil) {
			if seen[c] {
				t.Fatalf("cell %d appears in two rings", c)
			}
			seen[c] = true
			total++
		}
	}
	if total != g.NumCells() {
		t.Fatalf("rings cover %d cells, want %d", total, g.NumCells())
	}
	// Corner point: ring 1 has only 3 neighbours.
	corner := g.Center(0)
	if got := len(g.RingCells(corner, 1, nil)); got != 3 {
		t.Errorf("corner ring 1 has %d cells, want 3", got)
	}
}

func TestRingInnerDistIsLowerBound(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 12, 12), 6, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := Point{rng.Float64() * 12, rng.Float64() * 12}
		for ring := 1; ring <= g.MaxRing(); ring++ {
			bound := g.RingInnerDist(p, ring)
			for _, c := range g.RingCells(p, ring, nil) {
				rect := g.CellRect(c)
				// Distance from p to nearest point of the cell rect.
				dx := math.Max(math.Max(rect.MinX-p.X, p.X-rect.MaxX), 0)
				dy := math.Max(math.Max(rect.MinY-p.Y, p.Y-rect.MaxY), 0)
				d := math.Sqrt(dx*dx + dy*dy)
				if d+1e-9 < bound {
					t.Fatalf("ring %d: cell %d at distance %v < bound %v (p=%v)", ring, c, d, bound, p)
				}
			}
		}
	}
}

func TestNewGridPanics(t *testing.T) {
	assertPanics(t, func() { NewGrid(NewRect(0, 0, 1, 1), 0, 5) })
	assertPanics(t, func() { NewGrid(NewRect(0, 0, 1, 1), 5, -1) })
	assertPanics(t, func() { NewGrid(Rect{}, 5, 5) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestCenterDistSymmetric(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 50, 50), 50, 50)
	if err := quick.Check(func(a, b uint16) bool {
		ca := int(a) % g.NumCells()
		cb := int(b) % g.NumCells()
		return almostEqual(g.CenterDist(ca, cb), g.CenterDist(cb, ca))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
