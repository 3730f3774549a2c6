package core

import (
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/spatial"
)

// SimpleGreedy is the baseline of Section 2.2, extended from the online
// model of Tong et al. (ICDE 2016): when a new object arrives, it is
// matched immediately with the nearest object of the other kind that
// satisfies the deadline constraint, if any; otherwise it waits in place
// (workers until Sw+Dw, tasks until Sr+Dr). Workers never relocate.
type SimpleGreedy struct {
	p sim.Platform

	waitingWorkers *spatial.Index // unmatched workers at their initial location
	waitingTasks   *spatial.Index // unmatched released tasks

	// maxTaskBudget is the largest Dr seen so far, bounding worker-side
	// search radii. Tracking the running max instead of peeking at the
	// full population keeps the algorithm open-world without changing its
	// output: a waiting task has already arrived, so its expiry is
	// included in the running max and the nearest-search radius still
	// covers every feasible candidate.
	maxTaskBudget float64
	deadIDs       []int // scratch for lazy expiry cleanup

	// lastBounds/lastSized enable index reuse across sessions over the
	// same service area, so repeat replays allocate nothing here.
	lastBounds             geo.Rect
	lastSizedW, lastSizedT int
}

// defaultIndexCapacity sizes waiting-object indexes when the session has
// no population hints (live traffic). The index stays correct beyond this
// — id tables grow on demand — but its bucket resolution is fixed at
// construction, so ring scans slow down once the waiting population
// dwarfs the estimate; callers who can bound their traffic should pass
// Hints.
const defaultIndexCapacity = 1024

// expectedOr returns the hint when present and def otherwise.
func expectedOr(hint, def int) int {
	if hint > 0 {
		return hint
	}
	return def
}

// NewSimpleGreedy creates the baseline.
func NewSimpleGreedy() *SimpleGreedy { return &SimpleGreedy{} }

// Name implements sim.Algorithm.
func (a *SimpleGreedy) Name() string { return "SimpleGreedy" }

// Init implements sim.Algorithm.
func (a *SimpleGreedy) Init(p sim.Platform) {
	a.p = p
	bounds := p.Bounds()
	h := p.Hints()
	expW := expectedOr(h.ExpectedWorkers, defaultIndexCapacity)
	expT := expectedOr(h.ExpectedTasks, defaultIndexCapacity)
	if a.waitingWorkers != nil && bounds == a.lastBounds && expW == a.lastSizedW && expT == a.lastSizedT {
		// Same service area and sizing: clear the indexes in place instead
		// of rebuilding them, so repeat sessions allocate nothing here.
		a.waitingWorkers.Reset()
		a.waitingTasks.Reset()
	} else {
		a.waitingWorkers = spatial.NewIndex(bounds, expW)
		a.waitingTasks = spatial.NewIndex(bounds, expT)
		a.lastBounds = bounds
		a.lastSizedW, a.lastSizedT = expW, expT
	}
	a.maxTaskBudget = 0
}

// OnWorkerArrival implements sim.Algorithm.
func (a *SimpleGreedy) OnWorkerArrival(w int, now float64) {
	worker := a.p.Worker(w)
	velocity := a.p.Velocity()
	a.deadIDs = a.deadIDs[:0]
	// The farthest reachable waiting task is bounded by the largest
	// remaining expiry budget.
	maxDist := a.maxTaskBudget * velocity
	t, _ := a.waitingTasks.Nearest(worker.Loc, maxDist, func(t int) bool {
		if !a.p.TaskAvailable(t, now) {
			a.deadIDs = append(a.deadIDs, t)
			return false
		}
		return model.FeasibleAt(worker, a.p.Task(t), worker.Loc, now, velocity)
	})
	for _, id := range a.deadIDs {
		a.waitingTasks.Remove(id)
	}
	if t >= 0 && a.p.TryMatch(w, t, now) {
		a.waitingTasks.Remove(t)
		return
	}
	a.waitingWorkers.Insert(w, worker.Loc)
}

// OnTaskArrival implements sim.Algorithm.
func (a *SimpleGreedy) OnTaskArrival(t int, now float64) {
	task := a.p.Task(t)
	velocity := a.p.Velocity()
	if task.Expiry > a.maxTaskBudget {
		a.maxTaskBudget = task.Expiry
	}
	a.deadIDs = a.deadIDs[:0]
	// Workers beyond Dr·v cannot reach the task before its deadline.
	maxDist := task.Expiry * velocity
	w, _ := a.waitingWorkers.Nearest(task.Loc, maxDist, func(w int) bool {
		if !a.p.WorkerAvailable(w, now) {
			a.deadIDs = append(a.deadIDs, w)
			return false
		}
		worker := a.p.Worker(w)
		return model.FeasibleAt(worker, task, worker.Loc, now, velocity)
	})
	for _, id := range a.deadIDs {
		a.waitingWorkers.Remove(id)
	}
	if w >= 0 && a.p.TryMatch(w, t, now) {
		a.waitingWorkers.Remove(w)
		return
	}
	a.waitingTasks.Insert(t, task.Loc)
}

// OnFinish implements sim.Algorithm.
func (a *SimpleGreedy) OnFinish(now float64) {}

// Remap implements sim.RetirableAlgorithm: the waiting indexes are
// re-keyed in place. Retired ids drop out of their buckets — the same
// entries the lazy deadIDs sweep would have removed, since a retired
// object is unavailable by construction — so the index stays proportional
// to the live waiting population. maxTaskBudget is a running max over all
// admitted tasks and deliberately survives retirement: pruning with a
// too-large radius is lossless.
func (a *SimpleGreedy) Remap(workers, tasks []int32) {
	a.waitingWorkers.Remap(workers)
	a.waitingTasks.Remap(tasks)
}

// Reserve implements sim.Reserver: the waiting indexes' id tables are
// keyed by handle.
func (a *SimpleGreedy) Reserve(workers, tasks int) {
	a.waitingWorkers.Reserve(workers)
	a.waitingTasks.Reserve(tasks)
}

// OnWorkerWithdraw implements sim.WithdrawAwareAlgorithm: the withdrawn
// worker leaves the waiting index immediately (Remove tolerates absence —
// the worker may already have been swept or never waited).
func (a *SimpleGreedy) OnWorkerWithdraw(w int, now float64) { a.waitingWorkers.Remove(w) }

// OnTaskWithdraw is OnWorkerWithdraw for the task side.
func (a *SimpleGreedy) OnTaskWithdraw(t int, now float64) { a.waitingTasks.Remove(t) }
