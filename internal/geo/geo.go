// Package geo provides the 2D geometry substrate for FTOA: points,
// Euclidean distances, travel times under a uniform worker velocity, and the
// uniform grid partitioning ("grid areas") the paper's offline prediction and
// guide generation operate on.
//
// The paper models space as a rectangle partitioned into x×y equal grid
// cells; all workers share one velocity, so travel cost between two points is
// distance divided by velocity (Definition 3).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2D plane. Coordinates are in abstract space
// units (the synthetic experiments use grid units; the city traces use
// scaled longitude/latitude).
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SqDist returns the squared Euclidean distance between p and q. It avoids
// the square root and is the right comparator for nearest-neighbour search.
func (p Point) SqDist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Lerp returns the point a fraction t of the way from p to q. t is clamped
// to [0, 1], so Lerp never extrapolates past either endpoint.
func (p Point) Lerp(q Point, t float64) Point {
	if t <= 0 {
		return p
	}
	if t >= 1 {
		return q
	}
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// TravelTime returns the time to travel from p to q at the given velocity
// (space units per time unit). Velocity must be positive; a non-positive
// velocity yields +Inf so that every such pair is infeasible rather than
// silently instantaneous.
func TravelTime(p, q Point, velocity float64) float64 {
	if velocity <= 0 {
		return math.Inf(1)
	}
	return p.Dist(q) / velocity
}

// Rect is an axis-aligned rectangle [MinX, MaxX) × [MinY, MaxY).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect builds a rectangle from two corner coordinates, normalising the
// order so Min ≤ Max on both axes.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// Width returns the extent of r along X.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along Y.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside r (half-open on the max edges, so
// adjacent rectangles tile the plane without double-counting).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Clamp returns the point of r nearest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), math.Nextafter(r.MaxX, r.MinX)),
		Y: math.Min(math.Max(p.Y, r.MinY), math.Nextafter(r.MaxY, r.MinY)),
	}
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Grid partitions a rectangle into Cols×Rows equal cells ("grid areas" in
// the paper). Cell indices are flattened row-major: cell = row*Cols + col,
// matching the paper's Area j numbering in Figure 1d.
type Grid struct {
	Bounds Rect
	Cols   int // number of cells along X
	Rows   int // number of cells along Y

	cellW float64
	cellH float64
}

// NewGrid builds a grid over bounds with cols×rows cells. It panics on
// non-positive dimensions or an empty rectangle, which are programming
// errors rather than data errors.
func NewGrid(bounds Rect, cols, rows int) *Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geo: invalid grid dimensions %dx%d", cols, rows))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic("geo: empty grid bounds")
	}
	return &Grid{
		Bounds: bounds,
		Cols:   cols,
		Rows:   rows,
		cellW:  bounds.Width() / float64(cols),
		cellH:  bounds.Height() / float64(rows),
	}
}

// NumCells returns the total number of grid cells.
func (g *Grid) NumCells() int { return g.Cols * g.Rows }

// CellSize returns the width and height of one cell.
func (g *Grid) CellSize() (w, h float64) { return g.cellW, g.cellH }

// CellOf returns the flattened index of the cell containing p. Points on or
// beyond the max edges are clamped into the last cell, and points below the
// min edges into the first, so every point maps to a valid cell; callers
// that must reject out-of-range points should test Bounds.Contains first
// (the paper drops data points outside the city rectangle).
func (g *Grid) CellOf(p Point) int {
	col := int((p.X - g.Bounds.MinX) / g.cellW)
	row := int((p.Y - g.Bounds.MinY) / g.cellH)
	if col < 0 {
		col = 0
	} else if col >= g.Cols {
		col = g.Cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.Rows {
		row = g.Rows - 1
	}
	return row*g.Cols + col
}

// ColRow splits a flattened cell index into (col, row).
func (g *Grid) ColRow(cell int) (col, row int) {
	return cell % g.Cols, cell / g.Cols
}

// CellRect returns the rectangle of the given cell.
func (g *Grid) CellRect(cell int) Rect {
	col, row := g.ColRow(cell)
	x0 := g.Bounds.MinX + float64(col)*g.cellW
	y0 := g.Bounds.MinY + float64(row)*g.cellH
	return Rect{MinX: x0, MinY: y0, MaxX: x0 + g.cellW, MaxY: y0 + g.cellH}
}

// Center returns the center point of the given cell. The guide uses cell
// centers as the representative location of all predicted objects in the
// cell.
func (g *Grid) Center(cell int) Point {
	col, row := g.ColRow(cell)
	return Point{
		X: g.Bounds.MinX + (float64(col)+0.5)*g.cellW,
		Y: g.Bounds.MinY + (float64(row)+0.5)*g.cellH,
	}
}

// CenterDist returns the Euclidean distance between the centers of two
// cells.
func (g *Grid) CenterDist(a, b int) float64 {
	return g.Center(a).Dist(g.Center(b))
}

// CellsWithinRadius appends to dst the indices of all cells whose center
// lies within radius of the center of the origin cell, and returns the
// extended slice. The origin cell itself is always included (distance 0).
// The scan is restricted to the bounding box of the radius, so cost is
// proportional to the disk area rather than the whole grid: a center k
// columns away is k·cellW away, so no column past ceil(radius/cellW) can
// qualify, and likewise for rows.
func (g *Grid) CellsWithinRadius(origin int, radius float64, dst []int) []int {
	if radius < 0 {
		return dst
	}
	oc, or := g.ColRow(origin)
	dc := int(math.Ceil(radius / g.cellW))
	dr := int(math.Ceil(radius / g.cellH))
	center := g.Center(origin)
	r2 := radius * radius
	for row := max(0, or-dr); row <= min(g.Rows-1, or+dr); row++ {
		for col := max(0, oc-dc); col <= min(g.Cols-1, oc+dc); col++ {
			cell := row*g.Cols + col
			if g.Center(cell).SqDist(center) <= r2 {
				dst = append(dst, cell)
			}
		}
	}
	return dst
}

// RingCells appends to dst the cells at Chebyshev ring distance exactly
// ring from the cell containing p, and returns the extended slice.
// Ring 0 is the cell itself. It is the enumeration primitive for expanding
// nearest-neighbour search in the spatial index.
func (g *Grid) RingCells(p Point, ring int, dst []int) []int {
	oc := g.CellOf(p)
	col0, row0 := g.ColRow(oc)
	if ring == 0 {
		return append(dst, oc)
	}
	lo, hi := -ring, ring
	for dc := lo; dc <= hi; dc++ {
		for _, drr := range [2]int{lo, hi} {
			c, r := col0+dc, row0+drr
			if c >= 0 && c < g.Cols && r >= 0 && r < g.Rows {
				dst = append(dst, r*g.Cols+c)
			}
		}
	}
	for drr := lo + 1; drr <= hi-1; drr++ {
		for _, dc := range [2]int{lo, hi} {
			c, r := col0+dc, row0+drr
			if c >= 0 && c < g.Cols && r >= 0 && r < g.Rows {
				dst = append(dst, r*g.Cols+c)
			}
		}
	}
	return dst
}

// MaxRing returns the largest ring index that can contain any cell for a
// point inside the grid, i.e. the number of expanding-search steps after
// which the whole grid has been covered.
func (g *Grid) MaxRing() int {
	if g.Cols > g.Rows {
		return g.Cols - 1
	}
	return g.Rows - 1
}

// RingInnerDist returns a lower bound on the distance from p to any point
// in a cell at Chebyshev ring distance ring from p's cell. It lets an
// expanding search stop as soon as the best candidate found is closer than
// any unexplored ring could be.
func (g *Grid) RingInnerDist(p Point, ring int) float64 {
	if ring <= 0 {
		return 0
	}
	cell := g.CellOf(p)
	rect := g.CellRect(cell)
	// Distance from p to the boundary of the (2·ring−1)-cell-wide box around
	// its own cell is at least (ring−1) cells plus the distance to its own
	// cell edge on the nearer axis.
	dx := math.Min(p.X-rect.MinX, rect.MaxX-p.X)
	dy := math.Min(p.Y-rect.MinY, rect.MaxY-p.Y)
	edge := math.Min(dx+float64(ring-1)*g.cellW, dy+float64(ring-1)*g.cellH)
	if edge < 0 {
		return 0
	}
	return edge
}
