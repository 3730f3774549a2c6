package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ftoa/internal/geo"
)

// Topology describes how the service area is carved into shard regions:
// a base Cols×Rows grid (the static -shards layout) in which any cell may
// be recursively quartered into a finer sub-grid. A topology is its list
// of leaf regions, base-cell-major and, within a cell, in quadtree
// pre-order (children SW, SE, NW, NE); a region id is an index into it. A
// uniform topology (no splits) numbers regions exactly like the base
// grid's cells, so static routers keep their historical shard ids.
//
// Topologies are immutable: Split and Merge return new values, and the
// router swaps whole topologies atomically (see Router.Rebalance).
type Topology struct {
	cols, rows int
	leaves     []leaf
}

// leaf is one region: its base cell, its depth below it and the quadrants
// (bit 0: east, bit 1: north) taken from the cell down, two bits per level
// with the first level highest and unused levels zero. Sorting leaves by
// (cell, path) is pre-order, and a leaf's path is the finest-depth path of
// its region's SW corner.
type leaf struct {
	cell  int32
	depth uint8
	path  uint16
}

// MaxSplitDepth bounds how many times one base cell can be quartered; at
// depth 6 a single cell already holds 4096 leaf regions. Split refuses to
// refine past it, and policy layers (shard/rebalance) clamp to it.
const MaxSplitDepth = 6

// maxBaseCells is the largest base grid whose fully split topology keeps
// every region id within MaxInt32: shard ids are 32-bit in the WAL, on
// the wire and in the event log.
const maxBaseCells = math.MaxInt32 >> (2 * MaxSplitDepth)

// levelShift is the bit offset of the quadrant chosen at level l (1 for
// the cell's own quarters) in a leaf path.
func levelShift(l int) int { return 2 * (MaxSplitDepth - l) }

// quadrantAt returns the quadrant the leaf took at level l.
func (lf leaf) quadrantAt(l int) int { return int(lf.path>>levelShift(l)) & 3 }

// child returns the leaf's quadrant q one level down.
func (lf leaf) child(q int) leaf {
	return leaf{cell: lf.cell, depth: lf.depth + 1, path: lf.path | uint16(q)<<levelShift(int(lf.depth)+1)}
}

// parent returns the quad the leaf is a quadrant of (depth must be > 0).
func (lf leaf) parent() leaf {
	return leaf{cell: lf.cell, depth: lf.depth - 1, path: lf.path &^ (3 << levelShift(int(lf.depth)))}
}

// before reports whether lf precedes o in region order.
func (lf leaf) before(o leaf) bool {
	return lf.cell < o.cell || lf.cell == o.cell && lf.path < o.path
}

// NewUniformTopology returns the unsplit base grid topology.
func NewUniformTopology(cols, rows int) *Topology {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("shard: invalid topology base %dx%d", cols, rows))
	}
	t := &Topology{cols: cols, rows: rows, leaves: make([]leaf, cols*rows)}
	for c := range t.leaves {
		t.leaves[c].cell = int32(c)
	}
	return t
}

// BaseCols and BaseRows return the static grid the topology refines.
func (t *Topology) BaseCols() int { return t.cols }
func (t *Topology) BaseRows() int { return t.rows }

// NumRegions returns the number of leaf regions.
func (t *Topology) NumRegions() int { return len(t.leaves) }

// Uniform reports whether no cell is split (the topology is exactly the
// base grid).
func (t *Topology) Uniform() bool { return len(t.leaves) == t.cols*t.rows }

// quadrant returns child q (bit 0: east, bit 1: north) of r.
func quadrant(r geo.Rect, q int) geo.Rect {
	mx := (r.MinX + r.MaxX) / 2
	my := (r.MinY + r.MaxY) / 2
	if q&1 == 0 {
		r.MaxX = mx
	} else {
		r.MinX = mx
	}
	if q&2 == 0 {
		r.MaxY = my
	} else {
		r.MinY = my
	}
	return r
}

// Regions returns the rectangle of every region over the given service
// bounds, in canonical (region id) order.
func (t *Topology) Regions(bounds geo.Rect) []geo.Rect {
	g := geo.NewGrid(bounds, t.cols, t.rows)
	out := make([]geo.Rect, len(t.leaves))
	for i, lf := range t.leaves {
		r := g.CellRect(int(lf.cell))
		for l := 1; l <= int(lf.depth); l++ {
			r = quadrant(r, lf.quadrantAt(l))
		}
		out[i] = r
	}
	return out
}

// Depth returns how many quarterings separate the region from its base
// cell (0 for an unsplit cell).
func (t *Topology) Depth(region int) int { return int(t.leaves[region].depth) }

// Split returns a topology with the region quartered into four children.
func (t *Topology) Split(region int) (*Topology, error) {
	if region < 0 || region >= len(t.leaves) {
		return nil, fmt.Errorf("shard: region %d out of range [0,%d)", region, len(t.leaves))
	}
	lf := t.leaves[region]
	if lf.depth >= MaxSplitDepth {
		return nil, fmt.Errorf("shard: region %d already at max split depth %d", region, MaxSplitDepth)
	}
	leaves := make([]leaf, 0, len(t.leaves)+3)
	leaves = append(leaves, t.leaves[:region]...)
	for q := 0; q < 4; q++ {
		leaves = append(leaves, lf.child(q))
	}
	leaves = append(leaves, t.leaves[region+1:]...)
	return &Topology{cols: t.cols, rows: t.rows, leaves: leaves}, nil
}

// quadAt reports whether leaves i..i+3 are the four children of one
// parent, in order.
func (t *Topology) quadAt(i int) bool {
	if i < 0 || i+3 >= len(t.leaves) || t.leaves[i].depth == 0 {
		return false
	}
	parent := t.leaves[i].parent()
	for q := 0; q < 4; q++ {
		if t.leaves[i+q] != parent.child(q) {
			return false
		}
	}
	return true
}

// Merge returns a topology with the quad containing the region collapsed
// back into its parent. The region must sit below the base grid and its
// three siblings must all be leaves.
func (t *Topology) Merge(region int) (*Topology, error) {
	if region < 0 || region >= len(t.leaves) {
		return nil, fmt.Errorf("shard: region %d out of range [0,%d)", region, len(t.leaves))
	}
	lf := t.leaves[region]
	if lf.depth == 0 {
		return nil, fmt.Errorf("shard: region %d is a base cell, nothing to merge", region)
	}
	first := region - lf.quadrantAt(int(lf.depth))
	if !t.quadAt(first) {
		return nil, fmt.Errorf("shard: region %d's siblings are not all leaves", region)
	}
	leaves := make([]leaf, 0, len(t.leaves)-3)
	leaves = append(leaves, t.leaves[:first]...)
	leaves = append(leaves, lf.parent())
	leaves = append(leaves, t.leaves[first+4:]...)
	return &Topology{cols: t.cols, rows: t.rows, leaves: leaves}, nil
}

// MergeableQuads returns, for every internal node whose four children are
// all leaves, those children's region ids (each group ascending, groups in
// region order).
func (t *Topology) MergeableQuads() [][4]int {
	var out [][4]int
	for i := range t.leaves {
		if t.quadAt(i) {
			out = append(out, [4]int{i, i + 1, i + 2, i + 3})
		}
	}
	return out
}

// Equal reports whether the two topologies describe the same region tree.
func (t *Topology) Equal(o *Topology) bool {
	return t.cols == o.cols && t.rows == o.rows && slices.Equal(t.leaves, o.leaves)
}

// Encode appends a self-contained encoding of the topology to dst: base
// dimensions as u16s, then every cell's quadtree as a pre-order bitmap —
// byte 1 an internal node whose four children follow, byte 0 a leaf —
// back to back (pre-order trees are self-delimiting). A leaf opens every
// ancestor it is the first leaf of: those below its last non-SW level.
func (t *Topology) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(t.cols))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(t.rows))
	for _, lf := range t.leaves {
		l := int(lf.depth)
		for l > 0 && lf.quadrantAt(l) == 0 {
			l--
		}
		for ; l < int(lf.depth); l++ {
			dst = append(dst, 1)
		}
		dst = append(dst, 0)
	}
	return dst
}

// DecodeTopology parses an Encode image, validating every cell tree.
func DecodeTopology(p []byte) (*Topology, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("shard: topology image too short (%d bytes)", len(p))
	}
	cols := int(binary.LittleEndian.Uint16(p))
	rows := int(binary.LittleEndian.Uint16(p[2:]))
	if cols <= 0 || rows <= 0 || cols > 1<<12 || rows > 1<<12 {
		return nil, fmt.Errorf("shard: bad topology base %dx%d", cols, rows)
	}
	// Every base cell takes at least one spec byte: the declared grid is
	// checked against the bytes that back it before it sizes the table.
	if cols*rows > len(p)-4 {
		return nil, fmt.Errorf("shard: topology base %dx%d declared, %d spec bytes follow", cols, rows, len(p)-4)
	}
	t := &Topology{cols: cols, rows: rows, leaves: make([]leaf, 0, cols*rows)}
	pos := 4
	for c := 0; c < cols*rows; c++ {
		// next is the node the next byte describes.
		next := leaf{cell: int32(c)}
		for {
			if pos >= len(p) {
				return nil, fmt.Errorf("shard: truncated topology spec")
			}
			b := p[pos]
			pos++
			if b == 1 {
				if next.depth >= MaxSplitDepth {
					return nil, fmt.Errorf("shard: topology deeper than %d", MaxSplitDepth)
				}
				next = next.child(0)
				continue
			}
			if b != 0 {
				return nil, fmt.Errorf("shard: bad topology spec byte %d", b)
			}
			t.leaves = append(t.leaves, next)
			// Step to the next sibling, climbing out of every quad this
			// leaf completes.
			for next.depth > 0 && next.quadrantAt(int(next.depth)) == 3 {
				next = next.parent()
			}
			if next.depth == 0 {
				break
			}
			next.path += 1 << levelShift(int(next.depth))
		}
	}
	if pos != len(p) {
		return nil, fmt.Errorf("shard: %d trailing topology bytes", len(p)-pos)
	}
	return t, nil
}

// String renders the topology compactly, e.g. "4x4" or "4x4+6" (base grid
// plus the number of extra regions splits added).
func (t *Topology) String() string {
	if t.Uniform() {
		return fmt.Sprintf("%dx%d", t.cols, t.rows)
	}
	return fmt.Sprintf("%dx%d+%d", t.cols, t.rows, len(t.leaves)-t.cols*t.rows)
}
