package core

import (
	"ftoa/internal/guide"
	"ftoa/internal/sim"
)

// POLAROP is Algorithm 3 (POLAR-OP): like POLAR, but guide nodes are
// *reusable* — an object is only ignored when its (slot, area) type has no
// node at all, which is what lifts the competitive ratio from (1−1/e)² ≈
// 0.4 to ≈ 0.47 and makes the algorithm robust to under-prediction.
//
// Association is pooled at cell level: all nodes of a cell are
// interchangeable (same slot, same area), so an arriving object may be
// matched with any waiting object associated to any of its cell's partner
// cells. This is the behaviour the paper's Example 6 exhibits (task r6,
// associated to a node whose own partner is exhausted, is matched with
// worker w7 waiting under a sibling node), and it weakly dominates
// per-node association. Dispatch targets still follow the per-node pair
// layout cyclically, so workers spread over partner areas proportionally
// to the guide's flow.
type POLAROP struct {
	g *guide.Guide
	p sim.Platform

	wCells cellTable[opCell]
	tCells cellTable[opCell]
}

// opCell is the online association state of one guide cell.
type opCell struct {
	nodeIdx int32 // node index the next arrival associates to (mod Count)
	cursor  runCursor
	queue   waitQueue // associated objects not yet matched
}

// waitQueue is a FIFO of object indices. Dead entries (matched elsewhere,
// expired, withdrawn, or retired to a negative sentinel by Remap) are
// dropped lazily during scans, keeping amortised cost O(1).
type waitQueue struct {
	items []int32
	head  int
}

func (q *waitQueue) push(v int32) { q.items = append(q.items, v) }

// scan calls try on each live entry in order until try commits one; dead
// entries encountered on the way are removed. It reports whether a match
// was committed. Negative entries are retired handles: dead by
// construction, removed with exactly the same head-advance/swap dynamics
// a live dead entry gets — which is what keeps the surviving entries'
// order evolution, and therefore the matching, identical to an unretired
// run.
func (q *waitQueue) scan(dead func(int32) bool, try func(int32) bool) bool {
	// Drop dead prefix.
	for q.head < len(q.items) && (q.items[q.head] < 0 || dead(q.items[q.head])) {
		q.head++
	}
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return false
	}
	for i := q.head; i < len(q.items); {
		cand := q.items[i]
		if cand < 0 || dead(cand) {
			q.items[i] = q.items[len(q.items)-1]
			q.items = q.items[:len(q.items)-1]
			continue
		}
		if try(cand) {
			if i == q.head {
				q.head++
			} else {
				q.items[i] = q.items[len(q.items)-1]
				q.items = q.items[:len(q.items)-1]
			}
			return true
		}
		i++
	}
	return false
}

// remap rebases the queue across an arena epoch. The consumed prefix is
// reclaimed and the leading run of retired entries is dropped (both are
// order-preserving, mirroring scan's own head advance), bounding the
// queue by its live window; interior retired entries become negative
// sentinels so future scans remove them with unchanged swap dynamics.
func (q *waitQueue) remap(m []int32) {
	items := q.items[q.head:]
	for len(items) > 0 && (items[0] < 0 || m[items[0]] < 0) {
		items = items[1:]
	}
	for i, h := range items {
		if h >= 0 {
			items[i] = m[h]
		}
	}
	n := copy(q.items, items)
	q.items = q.items[:n]
	q.head = 0
}

// NewPOLAROP creates a POLAR-OP instance bound to an offline guide.
func NewPOLAROP(g *guide.Guide) *POLAROP { return &POLAROP{g: g} }

// Name implements sim.Algorithm.
func (a *POLAROP) Name() string { return "POLAR-OP" }

// DispatchesWorkers marks a sim.DispatchingAlgorithm.
func (a *POLAROP) DispatchesWorkers() {}

// Init implements sim.Algorithm.
func (a *POLAROP) Init(p sim.Platform) {
	a.p = p
	a.wCells = newCellTable[opCell](len(a.g.WorkerCells))
	a.tCells = newCellTable[opCell](len(a.g.TaskCells))
}

// OnWorkerArrival implements sim.Algorithm.
func (a *POLAROP) OnWorkerArrival(w int, now float64) {
	slot, area := locateWorker(a.g, a.p.Worker(w))
	cid := a.g.WorkerCellID(slot, area)
	if cid < 0 {
		return // no node of this type at all: ignore
	}
	plan := &a.g.WorkerCells[cid]
	cell := a.wCells.touch(cid)

	// Try to match with a task waiting under one of this cell's partner
	// cells, preferring the partner of the node being associated.
	matched := a.matchFromPartners(plan, cell.cursor.runIdx, &a.tCells,
		func(t int32) bool { return !a.p.TaskAvailable(int(t), now) },
		func(t int32) bool { return a.p.TryMatch(w, int(t), now) },
	)
	if matched {
		a.advance(cell, plan)
		return
	}

	// No match: associate, dispatch per the node's pairing, and wait.
	partnerCell, _, hasPartner := a.peekPartner(cell, plan)
	a.advance(cell, plan)
	cell.queue.push(int32(w))
	if hasPartner {
		tPlan := &a.g.TaskCells[partnerCell]
		if tPlan.Key.Area != area {
			a.p.Dispatch(w, a.g.Cfg.Grid.Center(tPlan.Key.Area), now)
		}
	}
}

// OnTaskArrival implements sim.Algorithm.
func (a *POLAROP) OnTaskArrival(t int, now float64) {
	slot, area := locateTask(a.g, a.p.Task(t))
	cid := a.g.TaskCellID(slot, area)
	if cid < 0 {
		return
	}
	plan := &a.g.TaskCells[cid]
	cell := a.tCells.touch(cid)

	matched := a.matchFromPartners(plan, cell.cursor.runIdx, &a.wCells,
		func(w int32) bool { return !a.p.WorkerAvailable(int(w), now) },
		func(w int32) bool { return a.p.TryMatch(int(w), t, now) },
	)
	a.advance(cell, plan)
	if !matched {
		cell.queue.push(int32(t)) // the task waits in place until its deadline
	}
}

// OnFinish implements sim.Algorithm.
func (a *POLAROP) OnFinish(now float64) {}

// Remap implements sim.RetirableAlgorithm: every cell's waiting queue is
// rebased into the new handle space. Node indices and cursors are
// untouched — they track guide positions, not objects.
func (a *POLAROP) Remap(workers, tasks []int32) {
	a.wCells.each(func(c *opCell) { c.queue.remap(workers) })
	a.tCells.each(func(c *opCell) { c.queue.remap(tasks) })
}

// peekPartner returns the partner of the cell's current node without
// consuming the cursor.
func (a *POLAROP) peekPartner(cell *opCell, plan *guide.CellPlan) (partnerCell, partnerNode int32, ok bool) {
	c := cell.cursor
	return c.next(plan)
}

// advance moves the cell's node index one node forward, wrapping at Count
// so that nodes are reused round-robin (the "associated to Ŵ031's position
// again" of the paper's Example 6). The run cursor tracks the node index
// through the matched prefix.
func (a *POLAROP) advance(cell *opCell, plan *guide.CellPlan) {
	if plan.Count == 0 {
		return
	}
	if cell.nodeIdx < plan.Matched {
		cell.cursor.next(plan)
	}
	cell.nodeIdx++
	if cell.nodeIdx >= plan.Count {
		cell.nodeIdx = 0
		cell.cursor.reset()
	}
}

// matchFromPartners scans the waiting queues of the cell's partner cells,
// starting at the run the cell's cursor is on and wrapping, attempting
// try on each live waiting object until one commits. other is the opposite
// side's cell table; a partner cell that was never written has nobody
// waiting.
func (a *POLAROP) matchFromPartners(plan *guide.CellPlan, startRun int, other *cellTable[opCell], dead func(int32) bool, try func(int32) bool) bool {
	n := len(plan.Runs)
	if n == 0 {
		return false
	}
	if startRun >= n {
		startRun = 0
	}
	prev := int32(-1)
	for k := 0; k < n; k++ {
		run := plan.Runs[(startRun+k)%n]
		if run.Partner == prev {
			continue // consecutive runs to the same partner cell
		}
		prev = run.Partner
		if cell := other.peek(run.Partner); cell != nil && cell.queue.scan(dead, try) {
			return true
		}
	}
	return false
}
