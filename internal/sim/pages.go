package sim

// Pages is a dense table indexed 0..Len()-1 — a session arena, or any
// other structure keyed by session handle — stored as fixed pages of
// pageLen entries, each allocated when the table first grows onto it: the
// layout the shard event log gives its sequence space. Growth never
// copies an entry, so a table costs what it holds plus at most one
// partly filled page, leaves no garbage behind as it grows, and the
// pointer At returns stays valid until the entry is truncated away or a
// retirement's compaction moves another entry onto it. The zero value is
// an empty table. A Pages is not safe for concurrent use.
type Pages[T any] struct {
	dir []*[pageLen]T // allocated pages in index order; those past Len are capacity
	n   int
}

const (
	pageShift = 9
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Len returns the number of entries.
func (p *Pages[T]) Len() int { return p.n }

// At returns entry i, which must be below Len (a negative i panics on the
// page directory's own bounds check).
func (p *Pages[T]) At(i int) *T {
	if i >= p.n {
		panic("sim: page table index out of range")
	}
	return &p.dir[i>>pageShift][i&pageMask]
}

// Push appends v, allocating a page when the last one is full, and
// returns its index.
func (p *Pages[T]) Push(v T) int {
	i := p.n
	if i>>pageShift == len(p.dir) {
		p.dir = append(p.dir, new([pageLen]T))
	}
	p.dir[i>>pageShift][i&pageMask] = v
	p.n++
	return i
}

// Truncate drops the entries at and beyond n, which must not exceed Len.
// Their pages stay allocated for later pushes, zeroed so they pin nothing.
func (p *Pages[T]) Truncate(n int) {
	if n < 0 || n > p.n {
		panic("sim: page table truncated beyond its length")
	}
	for i := n; i < p.n; {
		j := i & pageMask
		k := min(pageLen, j+p.n-i)
		clear(p.dir[i>>pageShift][j:k])
		i += k - j
	}
	p.n = n
}

// PageCount returns how many pages the table holds, in use or not.
func (p *Pages[T]) PageCount() int { return len(p.dir) }

// Refit rule of a retirement: a table holding more than refitSlack times
// the entries the ending epoch used is carrying a burst (or a recovered
// history) that is over, and keeps pages for refitHeadroom times that use.
// The gap between the two factors is the hysteresis that keeps steady state
// allocation-free: epochs would have to shrink more than refitSlack-fold
// before a page is freed, and the table then absorbs refitHeadroom-fold
// growth before it allocates again. Tables at or under refitFloor entries
// are left alone: freeing them buys nothing and a quiet epoch would only
// make the next one allocate them back.
const (
	refitSlack    = 4
	refitHeadroom = 2
	refitFloor    = 4096
)

// refitDue applies the refit rule to a table with room for capacity
// entries, used of which the ending epoch filled.
func refitDue(capacity, used int) bool {
	return capacity > refitFloor && capacity > refitSlack*used
}

// Refit frees the pages beyond refitHeadroom x used entries when the
// refit rule finds the table burst-sized, used being how many entries the
// ending epoch filled, and reports whether it did. Every structure that
// follows a session's handles across epochs (the session arenas, spatial
// indexes, GR's waiting lists, the shard router's halo tables) calls it at
// retirement, so all of them release burst capacity by one rule.
func (p *Pages[T]) Refit(used int) bool {
	used = max(used, p.n)
	if !refitDue(len(p.dir)*pageLen, used) {
		return false
	}
	keep := (max(refitHeadroom*used, refitFloor) + pageMask) >> pageShift
	clear(p.dir[keep:])
	p.dir = p.dir[:keep]
	return true
}

// refitSlice is Refit for the session's few slices that are not indexed by
// handle: it returns s, or a copy at refitHeadroom x used when the refit
// rule finds s burst-sized.
func refitSlice[T any](s []T, used int) []T {
	used = max(used, len(s))
	if !refitDue(cap(s), used) {
		return s
	}
	return append(make([]T, 0, max(refitHeadroom*used, refitFloor)), s...)
}
