// Package core implements the paper's primary contribution: the
// prediction-oriented online task-assignment algorithms POLAR (Algorithm 2,
// competitive ratio ≈ 0.4) and POLAR-OP (Algorithm 3, ≈ 0.47), together
// with the comparison algorithms of Section 6 — SimpleGreedy, the
// batch-window baseline GR, and the offline optimum OPT.
//
// POLAR and POLAR-OP consult an offline guide (package guide) built from
// predicted per-(time slot, grid area) counts; each arrival is processed in
// O(1) by occupying/associating a guide node and following its
// pre-computed pairing. SimpleGreedy and GR represent the wait-in-place
// online models the paper improves on; OPT is the clairvoyant upper bound.
//
// The wait-in-place model itself — an arrival takes the nearest feasible
// waiting object of the other kind, or waits where it arrived — is
// implemented once, by waitPool (waitpool.go). SimpleGreedy is exactly the
// pool; TGOA's greedy first half and Hybrid's guide-miss fallback reuse it.
package core

import (
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
)

// locateWorker returns the (slot, area) prediction cell of a worker at its
// arrival, under the guide's discretisation.
func locateWorker(g *guide.Guide, w *model.Worker) (slot, area int) {
	return g.Cfg.Slots.SlotOf(w.Arrive), g.Cfg.Grid.CellOf(w.Loc)
}

// locateTask is the task-side analogue of locateWorker.
func locateTask(g *guide.Guide, t *model.Task) (slot, area int) {
	return g.Cfg.Slots.SlotOf(t.Release), g.Cfg.Grid.CellOf(t.Loc)
}

// runCursor walks the matched node indices [0, Matched) of a CellPlan in
// order, yielding for each consumed node its partner cell and partner node
// index. It is what makes per-arrival processing O(1): POLAR consumes
// nodes strictly in order and POLAR-OP cycles through them, so no search
// is ever needed.
type runCursor struct {
	runIdx int
	runPos int32
}

// next returns the partner of the cursor's current node and advances.
// ok is false when the cursor is past the matched prefix (unmatched node).
func (c *runCursor) next(plan *guide.CellPlan) (partnerCell, partnerNode int32, ok bool) {
	if c.runIdx >= len(plan.Runs) {
		return 0, 0, false
	}
	r := plan.Runs[c.runIdx]
	partnerCell = r.Partner
	partnerNode = r.PartnerOffset + c.runPos
	c.runPos++
	if c.runPos >= r.Count {
		c.runIdx++
		c.runPos = 0
	}
	return partnerCell, partnerNode, true
}

// reset rewinds the cursor to node 0 (used by POLAR-OP when its node index
// wraps around the cell's Count).
func (c *runCursor) reset() { c.runIdx, c.runPos = 0, 0 }

// remapHandles rewrites a waiting-handle list through a retirement table
// in place, dropping retired handles and preserving the relative order of
// the survivors. Order preservation is what keeps retirement
// behaviour-neutral for list-scanning algorithms: the dropped handles are
// exactly the ones the algorithm's own availability filtering would have
// compacted away, in the same order, at its next pass.
func remapHandles(hs []int32, m []int32) []int32 {
	k := 0
	for _, h := range hs {
		if n := m[h]; n >= 0 {
			hs[k] = n
			k++
		}
	}
	return hs[:k]
}

// All six online algorithms support arena retirement.
var (
	_ sim.RetirableAlgorithm = (*POLAR)(nil)
	_ sim.RetirableAlgorithm = (*POLAROP)(nil)
	_ sim.RetirableAlgorithm = (*SimpleGreedy)(nil)
	_ sim.RetirableAlgorithm = (*GR)(nil)
	_ sim.RetirableAlgorithm = (*Hybrid)(nil)
	_ sim.RetirableAlgorithm = (*TGOA)(nil)

	// The algorithms with per-handle state size it ahead of a recovery;
	// POLAR, POLAR-OP and GR keep theirs per guide cell or per batch.
	_ sim.Reserver = (*SimpleGreedy)(nil)
	_ sim.Reserver = (*Hybrid)(nil)
	_ sim.Reserver = (*TGOA)(nil)
)
