package core

import (
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/spatial"
)

// waitPool is the wait-in-place model of Section 2.2, and its only
// implementation: an arriving object is matched with the nearest waiting
// object of the other kind that satisfies the deadline constraint, if any;
// otherwise it waits where it arrived (workers until Sw+Dw, tasks until
// Sr+Dr). SimpleGreedy is exactly this pool; TGOA runs its first half on it
// and parks its second half's waiters in it; Hybrid falls back to it when
// the guide misses.
//
// Its exported methods implement sim.RetirableAlgorithm's Remap and
// sim.Reserver for the algorithms that embed it. A waiting object that
// leaves — matched elsewhere, expired or withdrawn — is unavailable
// through the platform, which is the searches' dead filter: the first
// search that passes over it removes it, and the next Remap drops it at
// the latest.
type waitPool struct {
	p sim.Platform

	// guided is set by Hybrid, whose guide may have dispatched a waiting
	// worker: feasibility is then judged from the worker's live position
	// and the task-side radius widens by maxWorkerBudget·v (see Hybrid).
	// The plain pool skips the WorkerPos calls.
	guided bool

	workers *spatial.Index // unmatched workers, at their arrival location
	tasks   *spatial.Index // unmatched released tasks

	// maxTaskBudget is the largest Dr seen so far, bounding worker-side
	// search radii. Tracking the running max instead of peeking at the
	// full population keeps the pool open-world without changing its
	// output: a waiting task has already arrived, so its expiry is
	// included in the running max and the nearest-search radius still
	// covers every feasible candidate.
	maxTaskBudget   float64
	maxWorkerBudget float64 // the largest Dw of any worker the pool has held

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

// init binds the pool to a session and empties it.
func (q *waitPool) init(p sim.Platform) {
	q.p = p
	bounds := p.Bounds()
	h := p.Hints()
	expW := expectedOr(h.ExpectedWorkers, defaultIndexCapacity)
	expT := expectedOr(h.ExpectedTasks, defaultIndexCapacity)
	if q.workers != nil && bounds == q.lastBounds && expW == q.lastSizedW && expT == q.lastSizedT {
		// Same service area and sizing: clear the indexes in place instead
		// of rebuilding them, so repeat sessions allocate nothing here.
		q.workers.Reset()
		q.tasks.Reset()
	} else {
		q.workers = spatial.NewIndex(bounds, expW)
		q.tasks = spatial.NewIndex(bounds, expT)
		q.lastBounds = bounds
		q.lastSizedW, q.lastSizedT = expW, expT
	}
	q.maxTaskBudget, q.maxWorkerBudget = 0, 0
}

// noteTask widens the worker-side search budget to cover task. offerTask
// notes its own task; an algorithm that may park a task without offering
// it notes the task on arrival.
func (q *waitPool) noteTask(task *model.Task) {
	if task.Expiry > q.maxTaskBudget {
		q.maxTaskBudget = task.Expiry
	}
}

// offerWorker matches worker w with its nearest feasible waiting task, or
// parks it at its arrival location. It reports whether w was matched.
func (q *waitPool) offerWorker(w int, now float64) bool {
	worker := q.p.Worker(w)
	velocity := q.p.Velocity()
	pos := worker.Loc
	if q.guided {
		pos = q.p.WorkerPos(w, now)
	}
	// The farthest reachable waiting task is bounded by the largest
	// remaining expiry budget.
	t, _ := q.tasks.Nearest(pos, q.maxTaskBudget*velocity,
		func(t int) bool { return !q.p.TaskAvailable(t, now) },
		func(t int) bool { return model.FeasibleAt(worker, q.p.Task(t), pos, now, velocity) })
	if t >= 0 && q.p.TryMatch(w, t, now) {
		q.tasks.Remove(t)
		return true
	}
	if worker.Patience > q.maxWorkerBudget {
		q.maxWorkerBudget = worker.Patience
	}
	q.workers.Insert(w, worker.Loc)
	return false
}

// offerTask is offerWorker for an arriving task t.
func (q *waitPool) offerTask(t int, now float64) bool {
	task := q.p.Task(t)
	velocity := q.p.Velocity()
	q.noteTask(task)
	// Workers beyond Dr·v cannot reach the task before its deadline; a
	// guided one may be up to Dw·v from where it is indexed.
	radius := task.Expiry * velocity
	if q.guided {
		radius = (task.Expiry + q.maxWorkerBudget) * velocity
	}
	w, _ := q.workers.Nearest(task.Loc, radius,
		func(w int) bool { return !q.p.WorkerAvailable(w, now) },
		func(w int) bool {
			worker := q.p.Worker(w)
			pos := worker.Loc
			if q.guided {
				pos = q.p.WorkerPos(w, now)
			}
			return model.FeasibleAt(worker, task, pos, now, velocity)
		})
	if w >= 0 && q.p.TryMatch(w, t, now) {
		q.workers.Remove(w)
		return true
	}
	q.tasks.Insert(t, task.Loc)
	return false
}

// Remap implements sim.RetirableAlgorithm: the waiting indexes are
// re-keyed in place. Retired ids drop out of their buckets — the same
// entries a search's dead filter would have removed, since a retired
// object is unavailable by construction — so the index stays proportional
// to the live waiting population, withdrawn objects no search visited
// included. The budgets are running maxima over everything the pool has
// seen and deliberately survive retirement: pruning with a too-large
// radius is lossless.
func (q *waitPool) Remap(workers, tasks []int32) {
	q.workers.Remap(workers)
	q.tasks.Remap(tasks)
}

// Reserve implements sim.Reserver: the waiting indexes' id tables are
// keyed by handle.
func (q *waitPool) Reserve(workers, tasks int) {
	q.workers.Reserve(workers)
	q.tasks.Reserve(tasks)
}
