package core

import (
	"ftoa/internal/guide"
	"ftoa/internal/sim"
)

// POLAR is Algorithm 2: each arriving object occupies at most one node of
// its (slot, area) type in the offline guide; if the occupied node's
// pre-paired partner node is already occupied, the two occupants are
// matched; otherwise a worker is dispatched toward the partner's area and
// a task waits. Objects that find no unoccupied node of their type are
// ignored (the prediction underestimated their cell). Every arrival is
// processed in O(1).
type POLAR struct {
	g *guide.Guide
	p sim.Platform

	wCells cellTable[polarCell]
	tCells cellTable[polarCell]
}

// polarCell is the online occupation state of one guide cell.
type polarCell struct {
	occupants []int32 // object index occupying node k, in occupation order
	cursor    runCursor
}

// NewPOLAR creates a POLAR instance bound to an offline guide. The guide
// is read-only and may be shared across runs and algorithms.
func NewPOLAR(g *guide.Guide) *POLAR { return &POLAR{g: g} }

// Name implements sim.Algorithm.
func (a *POLAR) Name() string { return "POLAR" }

// Init implements sim.Algorithm.
func (a *POLAR) Init(p sim.Platform) {
	a.p = p
	a.wCells = newCellTable[polarCell](len(a.g.WorkerCells))
	a.tCells = newCellTable[polarCell](len(a.g.TaskCells))
}

// OnWorkerArrival implements sim.Algorithm.
func (a *POLAR) OnWorkerArrival(w int, now float64) {
	slot, area := locateWorker(a.g, a.p.Worker(w))
	cid := a.g.WorkerCellID(slot, area)
	if cid < 0 {
		return // no node of this type: ignore (Algorithm 2, line 3 failure)
	}
	plan := &a.g.WorkerCells[cid]
	cell := a.wCells.touch(cid)
	if int32(len(cell.occupants)) >= plan.Count {
		return // all nodes of the type occupied: ignore
	}
	cell.occupants = append(cell.occupants, int32(w))
	partnerCell, partnerNode, matched := cell.cursor.next(plan)
	if !matched {
		return // unmatched guide node: the worker simply waits in place
	}
	tPlan := &a.g.TaskCells[partnerCell]
	if tCell := a.tCells.peek(partnerCell); tCell != nil && partnerNode < int32(len(tCell.occupants)) {
		// Partner node already occupied by an actual task: assign. A
		// retired occupant (negative after Remap) was matched or dead, so
		// the TryMatch it stands in for could only ever have been refused.
		if occ := tCell.occupants[partnerNode]; occ >= 0 {
			a.p.TryMatch(w, int(occ), now)
		}
		return
	}
	// Partner task not here yet: dispatch the worker toward its area
	// (staying put when the predicted task is in the worker's own area).
	if tPlan.Key.Area != area {
		a.p.Dispatch(w, a.g.Cfg.Grid.Center(tPlan.Key.Area), now)
	}
}

// OnTaskArrival implements sim.Algorithm.
func (a *POLAR) OnTaskArrival(t int, now float64) {
	slot, area := locateTask(a.g, a.p.Task(t))
	cid := a.g.TaskCellID(slot, area)
	if cid < 0 {
		return
	}
	plan := &a.g.TaskCells[cid]
	cell := a.tCells.touch(cid)
	if int32(len(cell.occupants)) >= plan.Count {
		return
	}
	cell.occupants = append(cell.occupants, int32(t))
	partnerCell, partnerNode, matched := cell.cursor.next(plan)
	if !matched {
		return // unmatched node: the task waits until its deadline
	}
	if wCell := a.wCells.peek(partnerCell); wCell != nil && partnerNode < int32(len(wCell.occupants)) {
		if occ := wCell.occupants[partnerNode]; occ >= 0 {
			a.p.TryMatch(int(occ), t, now)
		}
	}
	// Otherwise the paired worker has not arrived yet; the task waits and
	// will be found by the worker when (if) it arrives.
}

// OnFinish implements sim.Algorithm.
func (a *POLAR) OnFinish(now float64) {}

// Remap implements sim.RetirableAlgorithm. Occupation is positional — a
// cell's k-th occupant answers for guide node k — so retired occupants
// must keep their slot: they are replaced by a negative sentinel rather
// than removed, and the match paths above skip the (always-doomed)
// TryMatch against them. A withdrawn occupant keeps its handle until
// then: the one TryMatch a partner spends on it is refused (counted as
// attempted and rejected, nothing committed), and the retirement that
// follows sentinels it like any other dead occupant. Occupant lists are
// bounded by the guide's node counts, so the sentinels cost no growth.
func (a *POLAR) Remap(workers, tasks []int32) {
	a.wCells.each(func(c *polarCell) { remapOccupants(c.occupants, workers) })
	a.tCells.each(func(c *polarCell) { remapOccupants(c.occupants, tasks) })
}

func remapOccupants(occ []int32, m []int32) {
	for j, h := range occ {
		if h >= 0 {
			occ[j] = m[h]
		}
	}
}
