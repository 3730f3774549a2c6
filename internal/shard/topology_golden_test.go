package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"ftoa/internal/geo"
)

// goldenBounds is deliberately off the integer lattice so that region
// midlines land on inexact floats.
var goldenBounds = geo.NewRect(-13.25, 7.5, 101.3, 66.9)

type namedTopology struct {
	name string
	topo *Topology
}

// randomTopology applies a seeded sequence of splits to a 3x2 base — half
// of them into a child of the previous split, so the tree grows deep —
// merges one mergeable quad back, and splits a few more regions.
func randomTopology(tb testing.TB, seed uint64) *Topology {
	tb.Helper()
	g := lcg(seed)
	topo := NewUniformTopology(3, 2)
	last := 0
	split := func() {
		region := int(g.next() % uint64(topo.NumRegions()))
		if g.next()%2 == 0 {
			region = last + int(g.next()%4)
		}
		if nt, err := topo.Split(region); err == nil {
			topo, last = nt, region
		}
	}
	for i := 0; i < 16; i++ {
		split()
	}
	quads := topo.MergeableQuads()
	if len(quads) == 0 {
		tb.Fatalf("seed %d: no mergeable quad after the splits", seed)
	}
	merged, err := topo.Merge(quads[g.next()%uint64(len(quads))][int(g.next()%4)])
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	topo, last = merged, 0
	for i := 0; i < 4; i++ {
		split()
	}
	deep := false
	for i := 0; i < topo.NumRegions(); i++ {
		deep = deep || topo.Depth(i) >= 3
	}
	if !deep {
		tb.Fatalf("seed %d: no region at depth 3 or more in %s", seed, topo)
	}
	return topo
}

// topologyFamily is the fixed set of topologies the golden pins and the
// decoder fuzz seeds are taken from.
func topologyFamily(tb testing.TB) []namedTopology {
	return []namedTopology{
		{"uniform-1x1", NewUniformTopology(1, 1)},
		{"uniform-4x3", NewUniformTopology(4, 3)},
		{"random-3x2-seed1", randomTopology(tb, 1)},
		{"random-3x2-seed2", randomTopology(tb, 2)},
		{"random-3x2-seed3", randomTopology(tb, 3)},
		{"corner-1x1-depth6", cornerTopology(tb)},
	}
}

// cornerTopology quarters a 1x1 base down to MaxSplitDepth, always into
// the NE child of the last split.
func cornerTopology(tb testing.TB) *Topology {
	tb.Helper()
	topo := NewUniformTopology(1, 1)
	for region := 0; topo.Depth(region) < MaxSplitDepth; region += 3 {
		nt, err := topo.Split(region)
		if err != nil {
			tb.Fatal(err)
		}
		topo = nt
	}
	return topo
}

// TestTopologyEncodeGolden pins the WAL header's topology image of every
// family member: region layout and its on-disk bytes may not move.
func TestTopologyEncodeGolden(t *testing.T) {
	want := map[string]string{
		"uniform-1x1":       "1x1 e0b6e7aeacc47d97",
		"uniform-4x3":       "4x3 4d994968ed590aba",
		"random-3x2-seed1":  "3x2+57 dd8e24be964e6b6d",
		"random-3x2-seed2":  "3x2+57 9fe37e269d73c713",
		"random-3x2-seed3":  "3x2+57 08b292b9e5a35f83",
		"corner-1x1-depth6": "1x1+18 5c03c64e52be3727",
	}
	for _, nt := range topologyFamily(t) {
		img := nt.topo.Encode(nil)
		h := fnv.New64a()
		h.Write(img)
		got := fmt.Sprintf("%s %016x", nt.topo, h.Sum64())
		if got != want[nt.name] {
			t.Errorf("%s: Encode = %q, want %q", nt.name, got, want[nt.name])
		}
	}
}

// ownerLattice returns every point whose coordinates are a region's
// min/max edge, its midline, the floats just inside its edges, or a value
// outside the bounds, on each axis.
func ownerLattice(rects []geo.Rect, b geo.Rect) []geo.Point {
	xs := []float64{b.MinX - 7, math.Nextafter(b.MinX, math.Inf(-1)), b.MaxX + 7}
	ys := []float64{b.MinY - 7, math.Nextafter(b.MinY, math.Inf(-1)), b.MaxY + 7}
	for _, r := range rects {
		xs = append(xs, r.MinX, r.MaxX, (r.MinX+r.MaxX)/2,
			math.Nextafter(r.MinX, math.Inf(1)), math.Nextafter(r.MaxX, math.Inf(-1)))
		ys = append(ys, r.MinY, r.MaxY, (r.MinY+r.MaxY)/2,
			math.Nextafter(r.MinY, math.Inf(1)), math.Nextafter(r.MaxY, math.Inf(-1)))
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)
	pts := make([]geo.Point, 0, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			pts = append(pts, geo.Pt(x, y))
		}
	}
	return pts
}

// TestPlacementOwnerGolden pins Owner over the family on a lattice of
// region edges, midlines, the floats just inside max edges and points
// outside the bounds: split cells route exactly as they always have.
func TestPlacementOwnerGolden(t *testing.T) {
	want := map[string]string{
		"uniform-1x1":       "64 points d80ac658736bb725",
		"uniform-4x3":       "320 points 302add19ecc7c825",
		"random-3x2-seed1":  "4080 points 3889a6bfdd71a225",
		"random-3x2-seed2":  "5120 points 66d8a298270d9825",
		"random-3x2-seed3":  "3840 points 8fd5839327b01c85",
		"corner-1x1-depth6": "1024 points 60b8c51280128105",
	}
	for _, nt := range topologyFamily(t) {
		p := NewPlacementTopo(goldenBounds, nt.topo, 0)
		pts := ownerLattice(nt.topo.Regions(goldenBounds), goldenBounds)
		h := fnv.New64a()
		var b [4]byte
		for _, pt := range pts {
			binary.LittleEndian.PutUint32(b[:], uint32(p.Owner(pt)))
			h.Write(b[:])
		}
		got := fmt.Sprintf("%d points %016x", len(pts), h.Sum64())
		if got != want[nt.name] {
			t.Errorf("%s: Owner = %q, want %q", nt.name, got, want[nt.name])
		}
	}
}
