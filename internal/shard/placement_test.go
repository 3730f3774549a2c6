package shard

import (
	"math"
	"testing"

	"ftoa/internal/geo"
)

// TestPlacementOwnerAndMirrors: owners follow the grid; mirrors are
// exactly the neighbor regions within the given reach of the point, a
// reach capped at twice the halo.
func TestPlacementOwnerAndMirrors(t *testing.T) {
	p := NewPlacement(geo.NewRect(0, 0, 100, 100), 2, 2, 10)
	if p.NumRegions() != 4 {
		t.Fatalf("NumRegions = %d, want 4", p.NumRegions())
	}
	if p.Halo() != 10 {
		t.Fatalf("Halo = %v, want 10", p.Halo())
	}

	cases := []struct {
		pt      geo.Point
		owner   int
		mirrors []int
	}{
		// Deep interior of region 0: no mirrors.
		{geo.Pt(20, 20), 0, nil},
		// Near the vertical border between 0 and 1 only.
		{geo.Pt(45, 20), 0, []int{1}},
		// Just across that border: owner flips, mirror flips.
		{geo.Pt(55, 20), 1, []int{0}},
		// Near the horizontal border between 0 and 2 only.
		{geo.Pt(20, 45), 0, []int{2}},
		// Near the center cross: all three neighbors reachable.
		{geo.Pt(45, 45), 0, []int{1, 2, 3}},
		// Corner diagonal reach: (58, 58) is 8*sqrt(2) ≈ 11.3 > 10 from
		// region 0's corner, so only the axis neighbors mirror.
		{geo.Pt(58, 58), 3, []int{1, 2}},
		// Exactly at halo distance from the border: inclusive.
		{geo.Pt(40, 20), 0, []int{1}},
		// Epsilon farther: excluded.
		{geo.Pt(math.Nextafter(40, 0), 20), 0, nil},
		// Out-of-bounds points clamp to an edge region but still mirror
		// by true distance.
		{geo.Pt(-5, 49), 0, []int{2}},
	}
	for _, c := range cases {
		if got := p.Owner(c.pt); got != c.owner {
			t.Errorf("Owner(%v) = %d, want %d", c.pt, got, c.owner)
		}
		got := p.Mirrors(c.pt, p.Owner(c.pt), p.Halo(), nil)
		if len(got) != len(c.mirrors) {
			t.Errorf("Mirrors(%v) = %v, want %v", c.pt, got, c.mirrors)
			continue
		}
		want := map[int]bool{}
		for _, m := range c.mirrors {
			want[m] = true
		}
		for _, m := range got {
			if !want[m] {
				t.Errorf("Mirrors(%v) = %v, want %v", c.pt, got, c.mirrors)
			}
		}
	}
	// (58, 58) is 11.3 from region 0: inside twice the halo, and a reach
	// beyond that is capped there — (70, 70) is 28.3 away.
	if got := p.Mirrors(geo.Pt(58, 58), 3, 2*p.Halo(), nil); len(got) != 3 {
		t.Errorf("Mirrors at reach 2·halo = %v, want three regions", got)
	}
	if got := p.Mirrors(geo.Pt(70, 70), 3, 10*p.Halo(), nil); len(got) != 2 {
		t.Errorf("Mirrors at reach 10·halo = %v, want the two axis neighbors within 2·halo", got)
	}
}

// TestPlacementZeroHalo: no candidates, no mirrors, shares are exact area
// fractions — the disjoint grid router's behavior.
func TestPlacementZeroHalo(t *testing.T) {
	p := NewPlacement(geo.NewRect(0, 0, 100, 100), 4, 4, 0)
	for _, pt := range []geo.Point{geo.Pt(0, 0), geo.Pt(25, 25), geo.Pt(24.999, 50), geo.Pt(99, 99)} {
		if got := p.Mirrors(pt, p.Owner(pt), 10, nil); len(got) != 0 {
			t.Fatalf("Mirrors(%v) = %v with zero halo", pt, got)
		}
	}
	for i := 0; i < p.NumRegions(); i++ {
		if got := p.HintShare(i); math.Abs(got-1.0/16) > 1e-12 {
			t.Fatalf("HintShare(%d) = %v, want 1/16", i, got)
		}
	}
}

// TestPlacementHintShare: with a halo, border shards size for the band
// their tasks are mirrored from, twice the halo wide; the corner region of
// a 2x2 grid over 100x100 with halo 10 grows to 70x70 clipped = 0.49 of
// the area.
func TestPlacementHintShare(t *testing.T) {
	p := NewPlacement(geo.NewRect(0, 0, 100, 100), 2, 2, 10)
	for i := 0; i < 4; i++ {
		if got := p.HintShare(i); math.Abs(got-0.49) > 1e-12 {
			t.Fatalf("HintShare(%d) = %v, want 0.49", i, got)
		}
	}
	// An interior region of a 3x3 grid grows on all four sides.
	p3 := NewPlacement(geo.NewRect(0, 0, 90, 90), 3, 3, 5)
	center := 4 // row 1, col 1
	want := (50.0 * 50.0) / (90.0 * 90.0)
	if got := p3.HintShare(center); math.Abs(got-want) > 1e-12 {
		t.Fatalf("center HintShare = %v, want %v", got, want)
	}
}

// TestHaloForWindow: the natural derivation and its degenerate guards.
func TestHaloForWindow(t *testing.T) {
	if got := HaloForWindow(5, 2); got != 10 {
		t.Fatalf("HaloForWindow(5,2) = %v, want 10", got)
	}
	if got := HaloForWindow(0, 2); got != 0 {
		t.Fatalf("HaloForWindow(0,2) = %v, want 0", got)
	}
	if got := HaloForWindow(5, -1); got != 0 {
		t.Fatalf("HaloForWindow(5,-1) = %v, want 0", got)
	}
}
