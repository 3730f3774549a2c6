// Placement — the region-geometry layer of the shard router, extracted so
// that region shape is a first-class, tunable concern rather than an
// implicit property of grid routing. A Placement answers two questions
// about any location:
//
//   - which region OWNS it (every location has exactly one owner — the
//     leaf region of the topology containing it, clamped at the
//     service-area edges); and
//   - which neighbor regions must ALSO see it: the regions whose area lies
//     within a given reach of the location — for a task, the regions whose
//     workers could serve it (the router's rule is admission.reach, side.go:
//     min(2·halo, the task's window × velocity); workers are not mirrored).
//
// Since the rebalance subsystem the region set is no longer necessarily a
// uniform grid: a Placement is built over a Topology — a base Cols×Rows
// grid whose cells may be recursively quartered — and owner lookup is a
// base-grid cell lookup followed by a short quadtree descent. A uniform
// topology reproduces the historical grid placement bit for bit: same
// region numbering, same rectangles, same mirror sets.
//
// The halo width is the knob: the length of border pair the router finds,
// mirroring tasks up to twice as far. The natural setting is Velocity ×
// the deadline window (see HaloForWindow), but it is an explicit distance
// so operators can trade border-matching quality against mirroring cost.
// Zero disables mirroring and reduces the placement to the disjoint grid.
package shard

import (
	"ftoa/internal/geo"
)

// topoNode is one node of a parsed per-cell quadtree: region names the
// leaf, or is -1 for internal nodes whose four children sit at kids..kids+3.
type topoNode struct {
	region int32
	kids   int32
}

// Placement maps locations to an owner region plus the set of neighbor
// regions within a reach of at most twice its halo width. It is immutable
// after construction and safe for concurrent use.
type Placement struct {
	topo *Topology
	grid *geo.Grid // the base cell grid (first routing hop)
	halo float64
	// regions[i] is region i's rectangle, in canonical topology order.
	regions []geo.Rect
	// cellRegion[cell] short-circuits unsplit base cells straight to their
	// region id; split cells hold -1 and route through cellNodes.
	cellRegion []int32
	cellNodes  [][]topoNode
	// candidates[region] holds the regions whose area lies within 2·halo of
	// region — the superset Mirrors filters per point. For halos below half
	// a region size this is the 8-neighborhood or less, so the
	// per-admission filter touches a handful of rectangles.
	candidates [][]int32
}

// NewPlacement partitions bounds into a uniform cols×rows region grid with
// the given halo width — the static layout every router starts from.
func NewPlacement(bounds geo.Rect, cols, rows int, halo float64) *Placement {
	return NewPlacementTopo(bounds, NewUniformTopology(cols, rows), halo)
}

// NewPlacementTopo builds the placement of an arbitrary topology. Halo
// must be non-negative; the base grid follows geo.NewGrid's rules.
func NewPlacementTopo(bounds geo.Rect, topo *Topology, halo float64) *Placement {
	if !(halo >= 0) {
		panic("shard: halo must be non-negative")
	}
	p := &Placement{
		topo:       topo,
		grid:       geo.NewGrid(bounds, topo.BaseCols(), topo.BaseRows()),
		halo:       halo,
		regions:    topo.Regions(bounds),
		cellRegion: make([]int32, topo.BaseCols()*topo.BaseRows()),
		cellNodes:  make([][]topoNode, topo.BaseCols()*topo.BaseRows()),
	}
	region := int32(0)
	for c := range p.cellRegion {
		s := topo.cellSpec(c)
		if len(s) == 1 {
			p.cellRegion[c] = region
			region++
			continue
		}
		p.cellRegion[c] = -1
		p.cellNodes[c] = buildNodes(s, &region)
	}
	if halo > 0 {
		n := len(p.regions)
		p.candidates = make([][]int32, n)
		for c := 0; c < n; c++ {
			rc := p.regions[c]
			for o := 0; o < n; o++ {
				if o == c {
					continue
				}
				if rectDistSq(rc, p.regions[o]) <= 4*halo*halo {
					p.candidates[c] = append(p.candidates[c], int32(o))
				}
			}
		}
	}
	return p
}

// buildNodes parses a pre-order spec into a walkable node slice (node 0
// is the cell root) where every internal node's four children occupy
// contiguous slots, assigning leaf region ids from *next.
func buildNodes(s []byte, next *int32) []topoNode {
	var nodes []topoNode
	var parse func(pos, self int) int
	parse = func(pos, self int) int {
		if s[pos] == 0 {
			nodes[self] = topoNode{region: *next, kids: -1}
			*next++
			return pos + 1
		}
		kids := len(nodes)
		nodes = append(nodes, make([]topoNode, 4)...)
		nodes[self] = topoNode{region: -1, kids: int32(kids)}
		pos++
		for q := 0; q < 4; q++ {
			pos = parse(pos, kids+q)
		}
		return pos
	}
	nodes = append(nodes, topoNode{})
	parse(0, 0)
	return nodes
}

// HaloForWindow derives the natural halo width from the shared worker
// velocity and a deadline window (typically the task expiry Dr, the time
// a worker has to reach a task): an object farther than velocity×window
// from a region can never participate in a feasible pair with it.
func HaloForWindow(velocity, window float64) float64 {
	if velocity <= 0 || window <= 0 {
		return 0
	}
	return velocity * window
}

// NumRegions returns the number of regions.
func (p *Placement) NumRegions() int { return len(p.regions) }

// Halo returns the configured halo width.
func (p *Placement) Halo() float64 { return p.halo }

// Topology returns the region tree the placement was built over.
func (p *Placement) Topology() *Topology { return p.topo }

// Bounds returns the service-area rectangle.
func (p *Placement) Bounds() geo.Rect { return p.grid.Bounds }

// Owner returns the region owning location pt (clamped to the base grid,
// so out-of-area locations are owned by the nearest edge region).
func (p *Placement) Owner(pt geo.Point) int {
	c := p.grid.CellOf(pt)
	if rg := p.cellRegion[c]; rg >= 0 {
		return int(rg)
	}
	nodes := p.cellNodes[c]
	rect := p.grid.CellRect(c)
	n := int32(0)
	for nodes[n].region < 0 {
		mx := (rect.MinX + rect.MaxX) / 2
		my := (rect.MinY + rect.MaxY) / 2
		q := int32(0)
		// >= keeps the descent consistent with the half-open region
		// rectangles; out-of-cell points (edge clamping) descend toward
		// the nearest quadrant just like CellOf clamps to edge cells.
		if pt.X >= mx {
			q |= 1
			rect.MinX = mx
		} else {
			rect.MaxX = mx
		}
		if pt.Y >= my {
			q |= 2
			rect.MinY = my
		} else {
			rect.MaxY = my
		}
		n = nodes[n].kids + q
	}
	return int(nodes[n].region)
}

// Region returns the rectangle of region i.
func (p *Placement) Region(i int) geo.Rect { return p.regions[i] }

// Mirrors appends to dst the regions other than owner — pt's owning
// region, which the caller has already resolved via Owner — whose area
// lies within reach of pt: the regions that must receive a ghost copy of
// a task admitted at pt. reach is capped at twice the halo, the radius the
// candidate lists were built for. With a zero reach, or for interior
// locations farther than it from every region edge, it returns dst
// unchanged without touching the candidate lists, so the interior
// admission fast path stays allocation-free.
func (p *Placement) Mirrors(pt geo.Point, owner int, reach float64, dst []int) []int {
	reach = min(reach, 2*p.halo)
	if !(reach > 0) {
		return dst
	}
	rect := p.regions[owner]
	// Interior fast path: strictly farther than reach from the owner's
	// boundary means strictly farther than reach from every other region.
	if pt.X-rect.MinX > reach && rect.MaxX-pt.X > reach &&
		pt.Y-rect.MinY > reach && rect.MaxY-pt.Y > reach {
		return dst
	}
	r2 := reach * reach
	for _, c := range p.candidates[owner] {
		if pointRectDistSq(pt, p.regions[c]) <= r2 {
			dst = append(dst, int(c))
		}
	}
	return dst
}

// HintShare returns the fraction of total task traffic region i should
// size for: its own area share plus the expected halo fraction — the share
// of the full service area whose tasks may be mirrored into i because they
// fall within twice the halo of its region. Shares across regions sum to
// more than 1 exactly because mirrored tasks are duplicated. Workers are
// never mirrored: their share is the region's area share alone.
func (p *Placement) HintShare(i int) float64 { return p.share(i, 2*p.halo) }

// share is the area of region i grown by grow on every side, clipped to
// the service bounds, over the total area.
func (p *Placement) share(i int, grow float64) float64 {
	b := p.grid.Bounds
	r := p.regions[i]
	grown := geo.Rect{
		MinX: max(r.MinX-grow, b.MinX),
		MinY: max(r.MinY-grow, b.MinY),
		MaxX: min(r.MaxX+grow, b.MaxX),
		MaxY: min(r.MaxY+grow, b.MaxY),
	}
	return (grown.Width() * grown.Height()) / (b.Width() * b.Height())
}

// pointRectDistSq returns the squared distance from pt to the nearest
// point of r (zero when pt lies inside r).
func pointRectDistSq(pt geo.Point, r geo.Rect) float64 {
	dx := max(max(r.MinX-pt.X, 0), pt.X-r.MaxX)
	dy := max(max(r.MinY-pt.Y, 0), pt.Y-r.MaxY)
	return dx*dx + dy*dy
}

// rectDistSq returns the squared distance between the nearest points of
// two rectangles (zero when they touch or overlap).
func rectDistSq(a, b geo.Rect) float64 {
	dx := max(max(b.MinX-a.MaxX, 0), a.MinX-b.MaxX)
	dy := max(max(b.MinY-a.MaxY, 0), a.MinY-b.MaxY)
	return dx*dx + dy*dy
}
