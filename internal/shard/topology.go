package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ftoa/internal/geo"
)

// Topology describes how the service area is carved into shard regions:
// a base Cols×Rows grid (the static -shards layout) in which any cell may
// be recursively quartered into a finer sub-grid. Each base cell carries a
// pre-order bitmap over its quadtree — byte 1 is an internal node whose
// four children follow (SW, SE, NW, NE), byte 0 a leaf — and the leaves,
// visited base-cell-major in pre-order, are the regions, numbered densely
// from 0. A uniform topology (no splits) numbers regions exactly like the
// base grid's cells, so static routers keep their historical shard ids.
//
// Topologies are immutable: Split and Merge return new values, and the
// router swaps whole topologies atomically (see Router.Rebalance).
type Topology struct {
	cols, rows int
	// spec[cell] is the cell's pre-order split bitmap; nil means the cell
	// is a single leaf (the normalized form of []byte{0}).
	spec    [][]byte
	regions int
}

// MaxSplitDepth bounds how many times one base cell can be quartered; at
// depth 6 a single cell already holds 4096 leaf regions. Split refuses to
// refine past it, and policy layers (shard/rebalance) clamp to it.
const MaxSplitDepth = 6

// maxBaseCells is the largest base grid whose fully split topology keeps
// every region id within MaxInt32: shard ids are 32-bit in the WAL, on
// the wire and in the event log.
const maxBaseCells = math.MaxInt32 >> (2 * MaxSplitDepth)

// maxSplitDepth is the internal alias predating the export.
const maxSplitDepth = MaxSplitDepth

// specLeaf is the canonical single-leaf cell spec.
var specLeaf = []byte{0}

// NewUniformTopology returns the unsplit base grid topology.
func NewUniformTopology(cols, rows int) *Topology {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("shard: invalid topology base %dx%d", cols, rows))
	}
	return &Topology{cols: cols, rows: rows, spec: make([][]byte, cols*rows), regions: cols * rows}
}

// BaseCols and BaseRows return the static grid the topology refines.
func (t *Topology) BaseCols() int { return t.cols }
func (t *Topology) BaseRows() int { return t.rows }

// NumRegions returns the number of leaf regions.
func (t *Topology) NumRegions() int { return t.regions }

// Uniform reports whether no cell is split (the topology is exactly the
// base grid).
func (t *Topology) Uniform() bool { return t.regions == t.cols*t.rows }

func (t *Topology) cellSpec(cell int) []byte {
	if s := t.spec[cell]; s != nil {
		return s
	}
	return specLeaf
}

// walkSpec visits the leaves of one cell spec in pre-order, calling fn
// with each leaf's byte offset and depth, and returns the bytes consumed.
func walkSpec(s []byte, fn func(off, depth int)) (int, error) {
	pos := 0
	var stack []int // children remaining per open internal node
	for {
		if pos >= len(s) {
			return 0, fmt.Errorf("shard: truncated topology spec")
		}
		switch s[pos] {
		case 1:
			if len(stack) >= maxSplitDepth {
				return 0, fmt.Errorf("shard: topology deeper than %d", maxSplitDepth)
			}
			stack = append(stack, 4)
			pos++
			continue
		case 0:
			if fn != nil {
				fn(pos, len(stack))
			}
			pos++
		default:
			return 0, fmt.Errorf("shard: bad topology spec byte %d", s[pos])
		}
		// A completed subtree consumes one child slot of its parent;
		// fully consumed parents complete in turn.
		for len(stack) > 0 {
			stack[len(stack)-1]--
			if stack[len(stack)-1] > 0 {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return pos, nil
		}
	}
}

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

// walkSpecRects visits the leaves of one cell spec in pre-order with their
// rectangles, cell being the base cell's rect.
func walkSpecRects(s []byte, pos int, r geo.Rect, depth int, fn func(geo.Rect, int)) (int, error) {
	if pos >= len(s) {
		return 0, fmt.Errorf("shard: truncated topology spec")
	}
	switch s[pos] {
	case 0:
		fn(r, depth)
		return pos + 1, nil
	case 1:
		pos++
		for q := 0; q < 4; q++ {
			var err error
			pos, err = walkSpecRects(s, pos, quadrant(r, q), depth+1, fn)
			if err != nil {
				return 0, err
			}
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("shard: bad topology spec byte %d", s[pos])
	}
}

// Regions returns the rectangle of every region over the given service
// bounds, in canonical (region id) order.
func (t *Topology) Regions(bounds geo.Rect) []geo.Rect {
	g := geo.NewGrid(bounds, t.cols, t.rows)
	out := make([]geo.Rect, 0, t.regions)
	for c := 0; c < t.cols*t.rows; c++ {
		_, err := walkSpecRects(t.cellSpec(c), 0, g.CellRect(c), 0, func(r geo.Rect, _ int) {
			out = append(out, r)
		})
		if err != nil {
			panic(err) // internal invariant: stored specs always validate
		}
	}
	return out
}

// locate returns the base cell, spec byte offset and depth of a region.
func (t *Topology) locate(region int) (cell, off, depth int, err error) {
	if region < 0 || region >= t.regions {
		return 0, 0, 0, fmt.Errorf("shard: region %d out of range [0,%d)", region, t.regions)
	}
	seen := 0
	for c := 0; c < t.cols*t.rows; c++ {
		s := t.cellSpec(c)
		found := false
		if _, werr := walkSpec(s, func(o, d int) {
			if seen == region {
				cell, off, depth, found = c, o, d, true
			}
			seen++
		}); werr != nil {
			return 0, 0, 0, werr
		}
		if found {
			return cell, off, depth, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("shard: region %d not found", region)
}

// Depth returns how many quarterings separate the region from its base
// cell (0 for an unsplit cell).
func (t *Topology) Depth(region int) int {
	_, _, d, err := t.locate(region)
	if err != nil {
		panic(err)
	}
	return d
}

func (t *Topology) clone() *Topology {
	nt := &Topology{cols: t.cols, rows: t.rows, spec: make([][]byte, len(t.spec)), regions: t.regions}
	copy(nt.spec, t.spec)
	return nt
}

// Split returns a topology with the region quartered into four children.
func (t *Topology) Split(region int) (*Topology, error) {
	cell, off, depth, err := t.locate(region)
	if err != nil {
		return nil, err
	}
	if depth >= maxSplitDepth {
		return nil, fmt.Errorf("shard: region %d already at max split depth %d", region, maxSplitDepth)
	}
	s := t.cellSpec(cell)
	ns := make([]byte, 0, len(s)+4)
	ns = append(ns, s[:off]...)
	ns = append(ns, 1, 0, 0, 0, 0)
	ns = append(ns, s[off+1:]...)
	nt := t.clone()
	nt.spec[cell] = ns
	nt.regions += 3
	return nt, nil
}

// Merge returns a topology with the quad containing the region collapsed
// back into its parent. The region must sit below the base grid and its
// three siblings must all be leaves.
func (t *Topology) Merge(region int) (*Topology, error) {
	cell, off, depth, err := t.locate(region)
	if err != nil {
		return nil, err
	}
	if depth == 0 {
		return nil, fmt.Errorf("shard: region %d is a base cell, nothing to merge", region)
	}
	s := t.cellSpec(cell)
	// Find the region's parent: the innermost internal node whose subtree
	// is still open when the walk reaches off.
	parent := -1
	var open, kids []int // offsets of open internal nodes, children left
	for pos := 0; pos < len(s); {
		if s[pos] == 1 {
			open = append(open, pos)
			kids = append(kids, 4)
			pos++
			continue
		}
		if pos == off {
			parent = open[len(open)-1]
			break
		}
		pos++
		for len(open) > 0 {
			kids[len(kids)-1]--
			if kids[len(kids)-1] > 0 {
				break
			}
			open = open[:len(open)-1]
			kids = kids[:len(kids)-1]
		}
	}
	if parent < 0 {
		return nil, fmt.Errorf("shard: region %d has no parent", region)
	}
	if parent+4 >= len(s) || s[parent+1]|s[parent+2]|s[parent+3]|s[parent+4] != 0 {
		return nil, fmt.Errorf("shard: region %d's siblings are not all leaves", region)
	}
	ns := make([]byte, 0, len(s)-4)
	ns = append(ns, s[:parent]...)
	ns = append(ns, 0)
	ns = append(ns, s[parent+5:]...)
	nt := t.clone()
	if bytes.Equal(ns, specLeaf) {
		nt.spec[cell] = nil
	} else {
		nt.spec[cell] = ns
	}
	nt.regions -= 3
	return nt, nil
}

// MergeableQuads returns, for every internal node whose four children are
// all leaves, those children's region ids (each group ascending, groups in
// region order).
func (t *Topology) MergeableQuads() [][4]int {
	var out [][4]int
	region := 0
	for c := 0; c < t.cols*t.rows; c++ {
		s := t.spec[c]
		if s == nil {
			region++
			continue
		}
		for i := 0; i < len(s); i++ {
			if s[i] == 1 && i+4 < len(s) && s[i+1]|s[i+2]|s[i+3]|s[i+4] == 0 {
				out = append(out, [4]int{region, region + 1, region + 2, region + 3})
			}
			if s[i] == 0 {
				region++
			}
		}
	}
	return out
}

// Equal reports whether the two topologies describe the same region tree.
func (t *Topology) Equal(o *Topology) bool {
	if t.cols != o.cols || t.rows != o.rows || t.regions != o.regions {
		return false
	}
	for i := range t.spec {
		if !bytes.Equal(t.cellSpec(i), o.cellSpec(i)) {
			return false
		}
	}
	return true
}

// Encode appends a self-contained encoding of the topology to dst: base
// dimensions as u16s, then every cell's pre-order bitmap back to back
// (pre-order trees are self-delimiting).
func (t *Topology) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(t.cols))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(t.rows))
	for c := range t.spec {
		dst = append(dst, t.cellSpec(c)...)
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
	t := &Topology{cols: cols, rows: rows, spec: make([][]byte, cols*rows)}
	pos := 4
	for c := 0; c < cols*rows; c++ {
		leaves := 0
		used, err := walkSpec(p[pos:], func(int, int) { leaves++ })
		if err != nil {
			return nil, err
		}
		if used > 1 {
			t.spec[c] = append([]byte(nil), p[pos:pos+used]...)
		}
		t.regions += leaves
		pos += used
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
	return fmt.Sprintf("%dx%d+%d", t.cols, t.rows, t.regions-t.cols*t.rows)
}
