package core

import (
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/spatial"
)

// Hybrid is an extension beyond the paper: POLAR-OP with a SimpleGreedy
// fallback. Arrivals are first processed through the offline guide exactly
// like POLAR-OP; when the guide yields nothing — the object's type was not
// predicted, its partner cells hold no usable waiter, or (in strict mode)
// every guide-suggested pair fails the physical feasibility check — the
// object falls back to nearest-feasible-neighbour matching over the pool of
// *all* waiting objects.
//
// The motivation comes from the reproduction itself: with an oracle guide
// POLAR-OP tracks OPT, and its losses under learned predictions are exactly
// the arrivals the guide mishandles. Recovering those greedily preserves
// the O(1)-ish fast path (the fallback search only runs on guide misses)
// and can only add matches, so every competitive-ratio guarantee of
// POLAR-OP carries over.
type Hybrid struct {
	op              *POLAROP
	p               sim.Platform
	fallbackMatches int

	waitingWorkers *spatial.Index
	waitingTasks   *spatial.Index
	// maxTaskBudget is the running max of Dr over admitted tasks; see the
	// SimpleGreedy field of the same name for why the running max prunes
	// exactly the same candidates as the closed-world peek did.
	maxTaskBudget float64
	deadIDs       []int
}

// NewHybrid creates the extension bound to an offline guide.
func NewHybrid(g *guide.Guide) *Hybrid { return &Hybrid{op: NewPOLAROP(g)} }

// Name implements sim.Algorithm.
func (a *Hybrid) Name() string { return "POLAR-OP+G" }

// FallbackMatches reports how many commits came from the greedy fallback
// in the last run — the "guide miss" rate the extension recovers.
func (a *Hybrid) FallbackMatches() int { return a.fallbackMatches }

// Init implements sim.Algorithm.
func (a *Hybrid) Init(p sim.Platform) {
	a.p = p
	a.op.Init(p)
	h := p.Hints()
	a.waitingWorkers = spatial.NewIndex(p.Bounds(), expectedOr(h.ExpectedWorkers, defaultIndexCapacity))
	a.waitingTasks = spatial.NewIndex(p.Bounds(), expectedOr(h.ExpectedTasks, defaultIndexCapacity))
	a.maxTaskBudget = 0
	a.fallbackMatches = 0
}

// OnWorkerArrival implements sim.Algorithm.
func (a *Hybrid) OnWorkerArrival(w int, now float64) {
	a.op.OnWorkerArrival(w, now)
	if workerMatched(a.p, w) {
		return // the guide path matched it
	}
	// Guide miss: try the greedy fallback over all waiting tasks.
	worker := a.p.Worker(w)
	velocity := a.p.Velocity()
	a.deadIDs = a.deadIDs[:0]
	pos := a.p.WorkerPos(w, now)
	t, _ := a.waitingTasks.Nearest(pos, a.maxTaskBudget*velocity, func(t int) bool {
		if !a.p.TaskAvailable(t, now) {
			a.deadIDs = append(a.deadIDs, t)
			return false
		}
		return model.FeasibleAt(worker, a.p.Task(t), pos, now, velocity)
	})
	for _, id := range a.deadIDs {
		a.waitingTasks.Remove(id)
	}
	if t >= 0 && a.p.TryMatch(w, t, now) {
		a.waitingTasks.Remove(t)
		a.fallbackMatches++
		return
	}
	// Still unmatched: track it for future fallbacks. The guide may have
	// dispatched it; index its initial position and let feasibility checks
	// use live positions.
	a.waitingWorkers.Insert(w, worker.Loc)
}

// OnTaskArrival implements sim.Algorithm.
func (a *Hybrid) OnTaskArrival(t int, now float64) {
	task := a.p.Task(t)
	if task.Expiry > a.maxTaskBudget {
		a.maxTaskBudget = task.Expiry
	}
	a.op.OnTaskArrival(t, now)
	if taskMatched(a.p, t) {
		return
	}
	velocity := a.p.Velocity()
	a.deadIDs = a.deadIDs[:0]
	w, _ := a.waitingWorkers.Nearest(task.Loc, task.Expiry*velocity*2, func(w int) bool {
		if !a.p.WorkerAvailable(w, now) {
			a.deadIDs = append(a.deadIDs, w)
			return false
		}
		return model.FeasibleAt(a.p.Worker(w), task, a.p.WorkerPos(w, now), now, velocity)
	})
	for _, id := range a.deadIDs {
		a.waitingWorkers.Remove(id)
	}
	if w >= 0 && a.p.TryMatch(w, t, now) {
		a.waitingWorkers.Remove(w)
		a.fallbackMatches++
		return
	}
	a.waitingTasks.Insert(t, task.Loc)
}

// OnFinish implements sim.Algorithm.
func (a *Hybrid) OnFinish(now float64) { a.op.OnFinish(now) }

// Remap implements sim.RetirableAlgorithm: both halves rebase — the
// guide-path queues via POLAROP's remap and the fallback waiting indexes
// via the spatial re-key.
func (a *Hybrid) Remap(workers, tasks []int32) {
	a.op.Remap(workers, tasks)
	a.waitingWorkers.Remap(workers)
	a.waitingTasks.Remap(tasks)
}

// Reserve implements sim.Reserver for the fallback waiting indexes; the
// guide path's state is per cell, not per handle.
func (a *Hybrid) Reserve(workers, tasks int) {
	a.waitingWorkers.Reserve(workers)
	a.waitingTasks.Reserve(tasks)
}

// OnWorkerWithdraw implements sim.WithdrawAwareAlgorithm: both halves
// retract — the guide-path queue entry sentinels via POLAROP's hook and
// the fallback waiting index drops the id.
func (a *Hybrid) OnWorkerWithdraw(w int, now float64) {
	a.op.OnWorkerWithdraw(w, now)
	a.waitingWorkers.Remove(w)
}

// OnTaskWithdraw is OnWorkerWithdraw for the task side.
func (a *Hybrid) OnTaskWithdraw(t int, now float64) {
	a.op.OnTaskWithdraw(t, now)
	a.waitingTasks.Remove(t)
}

// workerMatched and taskMatched probe availability at time 0 as a cheap
// "has a match been committed for this object" signal: at time 0 no
// deadline has passed, so unavailability can only come from the matched
// flag. An object available before the guide-path call and unavailable
// afterwards was matched by it.
func workerMatched(p sim.Platform, w int) bool { return !p.WorkerAvailable(w, 0) }

func taskMatched(p sim.Platform, t int) bool { return !p.TaskAvailable(t, 0) }

var _ sim.Algorithm = (*Hybrid)(nil)
