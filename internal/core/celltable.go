package core

// A guide is built once and shared read-only by every session, but each
// session keeps online state per guide cell. A sharded server runs one
// session per region, and a region only ever sees the arrivals inside its
// bounds (plus halo ghosts), so most of a session's cells stay in their
// zero state forever. cellTable stores that state on small fixed pages
// allocated on first write; a cell on an absent page reads as zero.

const (
	pageShift = 3 // 8 cells: about the run of consecutive area ids one region row covers
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// cellTable is one side's per-session cell state, keyed by the guide's
// dense cell id.
type cellTable[T any] struct {
	pages []*[pageCells]T
}

// newCellTable returns an empty table addressing cells dense ids.
func newCellTable[T any](cells int) cellTable[T] {
	return cellTable[T]{pages: make([]*[pageCells]T, (cells+pageMask)>>pageShift)}
}

// peek returns the cell's state, or nil when its page was never written
// (the cell is in its zero state). Read paths use it so that looking at a
// partner cell does not materialise it.
func (t *cellTable[T]) peek(id int32) *T {
	if p := t.pages[id>>pageShift]; p != nil {
		return &p[id&pageMask]
	}
	return nil
}

// touch returns the cell's state for writing, allocating its page on
// first use.
func (t *cellTable[T]) touch(id int32) *T {
	p := t.pages[id>>pageShift]
	if p == nil {
		p = new([pageCells]T)
		t.pages[id>>pageShift] = p
	}
	return &p[id&pageMask]
}

// each calls f on every cell of every allocated page.
func (t *cellTable[T]) each(f func(*T)) {
	for _, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range p {
			f(&p[i])
		}
	}
}
