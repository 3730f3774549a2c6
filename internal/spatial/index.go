// Package spatial provides a dynamic grid-bucket index over points with
// expanding-ring nearest-neighbour search. SimpleGreedy uses it to find the
// closest feasible counterpart on every arrival (the operation the paper
// identifies as SimpleGreedy's bottleneck), GR uses it to enumerate batch
// candidates, and OPT uses a static variant to prune its bipartite graph.
//
// The index is deliberately decoupled from the prediction grid: it chooses
// its own bucket resolution from an expected population so that query cost
// does not degrade when experiments refine the prediction grid.
//
// Storage is dense: each bucket holds (id, point) entries inline, so the
// innermost ring scan of Nearest/Within walks contiguous memory with no map
// lookups, and queries allocate nothing at steady state (the cell scratch
// buffer is reused across calls). An id→(bucket, slot) table makes Remove
// O(1), and Reset clears the index without releasing any capacity so one
// index can serve many replay runs.
package spatial

import (
	"math"
	"slices"

	"ftoa/internal/geo"
	"ftoa/internal/sim"
)

// entry is one indexed point, stored inline in its bucket.
type entry struct {
	id int32
	p  geo.Point
}

// Index is a dynamic point index. IDs are caller-chosen non-negative ints,
// unique among the currently inserted entries.
type Index struct {
	grid    *geo.Grid
	buckets [][]entry
	// cell[id] is the bucket holding id, or -1 when id is absent; slot[id]
	// is its position within that bucket. Both grow with the largest id
	// ever inserted.
	cell    []int32
	slot    []int32
	n       int
	scratch []int
	dead    []int // ids Nearest found dead, removed once its scan ends
}

// NewIndex creates an index over bounds sized for roughly expectedN entries
// (used only to pick the bucket resolution; the index grows fine beyond it).
func NewIndex(bounds geo.Rect, expectedN int) *Index {
	if expectedN < 1 {
		expectedN = 1
	}
	// Aim for ~4 entries per bucket at expected population, capped so tiny
	// instances still get a few buckets and huge ones do not explode memory.
	side := int(math.Sqrt(float64(expectedN) / 4))
	if side < 1 {
		side = 1
	}
	if side > 1024 {
		side = 1024
	}
	g := geo.NewGrid(bounds, side, side)
	ix := &Index{
		grid:    g,
		buckets: make([][]entry, g.NumCells()),
		cell:    make([]int32, expectedN),
		slot:    make([]int32, expectedN),
	}
	for i := range ix.cell {
		ix.cell[i] = -1
	}
	return ix
}

// Len returns the number of entries currently in the index.
func (ix *Index) Len() int { return ix.n }

// grow extends the id tables to cover ids below n.
func (ix *Index) grow(n int) {
	for len(ix.cell) < n {
		ix.cell = append(ix.cell, -1)
		ix.slot = append(ix.slot, 0)
	}
}

// Reserve sizes the id tables for ids below n in one exact-size
// allocation each, for a caller that knows how many ids are coming (WAL
// recovery does); without it they grow by doubling as ids arrive.
func (ix *Index) Reserve(n int) {
	ix.cell = slices.Grow(ix.cell, max(0, n-len(ix.cell)))
	ix.slot = slices.Grow(ix.slot, max(0, n-len(ix.slot)))
}

// Insert adds id at point p. Inserting an id that is already present is a
// programming error and panics, as is a negative id.
func (ix *Index) Insert(id int, p geo.Point) {
	if id < 0 {
		panic("spatial: negative id")
	}
	if id >= len(ix.cell) {
		ix.grow(id + 1)
	}
	if ix.cell[id] >= 0 {
		panic("spatial: duplicate insert")
	}
	c := ix.grid.CellOf(p)
	b := ix.buckets[c]
	ix.cell[id] = int32(c)
	ix.slot[id] = int32(len(b))
	ix.buckets[c] = append(b, entry{id: int32(id), p: p})
	ix.n++
}

// Remove deletes id from the index in O(1). Removing an absent id is a
// no-op so callers can remove lazily-invalidated entries without tracking
// state.
func (ix *Index) Remove(id int) {
	if id < 0 || id >= len(ix.cell) || ix.cell[id] < 0 {
		return
	}
	c, s := ix.cell[id], ix.slot[id]
	b := ix.buckets[c]
	last := len(b) - 1
	if int(s) != last {
		moved := b[last]
		b[s] = moved
		ix.slot[moved.id] = s
	}
	ix.buckets[c] = b[:last]
	ix.cell[id] = -1
	ix.n--
}

// Remap rewrites every entry's id through m in place: an entry with id
// old becomes m[old], and entries mapped to a negative id are removed (the
// retired-handle convention of sim.Session.Retire). Points are untouched —
// a remap renames objects, it does not move them — so buckets only
// compact, never rehash. Ids at or beyond len(m) panic: the caller's
// table must cover every inserted id. The id tables follow the session's
// refit rule (sim.Refit): when they cover far more ids than the len(m) the
// ending epoch used, they are reallocated down.
func (ix *Index) Remap(m []int32) {
	// Pass 1: clear the id tables for every present entry and compact each
	// bucket to its survivors. The tables are rebuilt in a second pass
	// because old and new id ranges overlap numerically.
	for c, b := range ix.buckets {
		k := 0
		for _, e := range b {
			ix.cell[e.id] = -1
			nid := m[e.id]
			if nid < 0 {
				ix.n--
				continue
			}
			e.id = nid
			b[k] = e
			k++
		}
		ix.buckets[c] = b[:k]
	}
	for c, b := range ix.buckets {
		for s, e := range b {
			if int(e.id) >= len(ix.cell) {
				ix.grow(int(e.id) + 1)
			}
			ix.cell[e.id] = int32(c)
			ix.slot[e.id] = int32(s)
		}
	}
	// Every surviving id is below len(m): the tables end there (ids beyond
	// it re-extend them on insert) and give back what that leaves unused.
	if n := len(m); n < len(ix.cell) {
		ix.cell = sim.Refit(ix.cell[:n], n)
		ix.slot = sim.Refit(ix.slot[:n], n)
	}
}

// Reset removes every entry while keeping all allocated capacity (buckets,
// id tables, scratch), so an index can be reused across engine runs or
// batch windows with zero steady-state allocations.
func (ix *Index) Reset() {
	if ix.n == 0 {
		return
	}
	for c, b := range ix.buckets {
		if len(b) == 0 {
			continue
		}
		for _, e := range b {
			ix.cell[e.id] = -1
		}
		ix.buckets[c] = b[:0]
	}
	ix.n = 0
}

// Nearest returns the id of the entry nearest to p within maxDist that is
// not dead and for which accept returns true, or (-1, 0) if none
// qualifies. Entries for which accept returns false are skipped but kept;
// entries for which dead returns true are skipped and removed. Either
// predicate may be nil, meaning no entry is dead / every entry qualifies.
//
// The search expands ring by ring and stops as soon as the best candidate
// found so far is provably closer than anything in unexplored rings.
// Within the rings it visits, dead sees every entry within maxDist, not
// only those closer than the best so far, so entries that can never
// qualify again leave the searched neighbourhood on the first search that
// passes over them. Accept is asked only about live entries that would
// beat the best so far.
func (ix *Index) Nearest(p geo.Point, maxDist float64, dead, accept func(id int) bool) (best int, bestDist float64) {
	best = -1
	bestDist = math.Inf(1)
	if maxDist < 0 || ix.n == 0 {
		return -1, 0
	}
	maxRing := ix.grid.MaxRing()
	for ring := 0; ring <= maxRing; ring++ {
		// Stop when no unexplored cell can beat the current best.
		inner := ix.grid.RingInnerDist(p, ring)
		if inner > maxDist || inner > bestDist {
			break
		}
		ix.scratch = ix.grid.RingCells(p, ring, ix.scratch[:0])
		for _, c := range ix.scratch {
			for _, e := range ix.buckets[c] {
				d := p.Dist(e.p)
				if d > maxDist {
					continue
				}
				if dead != nil && dead(int(e.id)) {
					ix.dead = append(ix.dead, int(e.id))
					continue
				}
				if d >= bestDist || accept != nil && !accept(int(e.id)) {
					continue
				}
				best, bestDist = int(e.id), d
			}
		}
	}
	for _, id := range ix.dead {
		ix.Remove(id)
	}
	ix.dead = ix.dead[:0]
	if best == -1 {
		return -1, 0
	}
	return best, bestDist
}

// Within appends to dst the ids of all entries within maxDist of p and
// returns the extended slice, in no particular order.
func (ix *Index) Within(p geo.Point, maxDist float64, dst []int) []int {
	if maxDist < 0 || ix.n == 0 {
		return dst
	}
	origin := ix.grid.CellOf(p)
	w, h := ix.grid.CellSize()
	// The query point sits up to half a cell diagonal from its cell center
	// and so does any entry from its own cell center, so centers within
	// maxDist + one full cell diagonal cover every cell intersecting the
	// query disk.
	slack := math.Sqrt(w*w + h*h)
	ix.scratch = ix.grid.CellsWithinRadius(origin, maxDist+slack, ix.scratch[:0])
	for _, c := range ix.scratch {
		for _, e := range ix.buckets[c] {
			if p.Dist(e.p) <= maxDist {
				dst = append(dst, int(e.id))
			}
		}
	}
	return dst
}

// ForEach calls fn for every entry until fn returns false. Iteration order
// is deterministic: by bucket, then by insertion order within the bucket
// (as modified by Remove's swap-deletion).
func (ix *Index) ForEach(fn func(id int, p geo.Point) bool) {
	for _, b := range ix.buckets {
		for _, e := range b {
			if !fn(int(e.id), e.p) {
				return
			}
		}
	}
}
