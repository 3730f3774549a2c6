package shard

import (
	"bytes"
	"testing"

	"ftoa/internal/geo"
)

// FuzzDecodeTopology feeds arbitrary topology images to the WAL header's
// decoder. It must never panic, and an image it accepts must re-encode
// byte for byte, stay within MaxSplitDepth, and route every region's
// centre back to that region.
func FuzzDecodeTopology(f *testing.F) {
	for _, nt := range topologyFamily(f) {
		f.Add(nt.topo.Encode(nil))
	}
	// TestTopologyEncodeDecode's malformed images.
	g := lcg(17)
	topo := NewUniformTopology(3, 3)
	for i := 0; i < 12; i++ {
		if nt, err := topo.Split(int(g.next() % uint64(topo.NumRegions()))); err == nil {
			topo = nt
		}
	}
	img := topo.Encode(nil)
	f.Add(img[:3])
	f.Add(img[:len(img)-1])
	f.Add(append(img[:len(img):len(img)], 0))
	f.Add(append(img[:len(img):len(img)], 7))
	f.Add([]byte{0, 0, 1, 0})
	deep := []byte{1, 0, 1, 0}
	for d := 0; d < MaxSplitDepth+1; d++ {
		deep = append(deep, 1)
	}
	for d := 0; d < MaxSplitDepth+1; d++ {
		deep = append(deep, 0, 0, 0, 0)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, p []byte) {
		topo, err := DecodeTopology(p)
		if err != nil {
			return
		}
		if re := topo.Encode(nil); !bytes.Equal(re, p) {
			t.Fatalf("image %x re-encodes as %x", p, re)
		}
		for i := 0; i < topo.NumRegions(); i++ {
			if d := topo.Depth(i); d > MaxSplitDepth {
				t.Fatalf("region %d at depth %d", i, d)
			}
		}
		if topo.NumRegions() > 4096 {
			return
		}
		pl := NewPlacementTopo(goldenBounds, topo, 0)
		for i, r := range topo.Regions(goldenBounds) {
			centre := geo.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2)
			if got := pl.Owner(centre); got != i {
				t.Fatalf("%s: Owner of region %d's centre %v = %d", topo, i, centre, got)
			}
		}
	})
}
