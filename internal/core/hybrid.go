package core

import (
	"ftoa/internal/guide"
	"ftoa/internal/sim"
)

// Hybrid is an extension beyond the paper: POLAR-OP with a SimpleGreedy
// fallback. Arrivals are first processed through the offline guide exactly
// like POLAR-OP; when the guide yields nothing — the object's type was not
// predicted, its partner cells hold no usable waiter, or (in strict mode)
// every guide-suggested pair fails the physical feasibility check — the
// object falls back to nearest-feasible-neighbour matching over the pool of
// *all* waiting objects (a guided waitPool).
//
// The guide may have dispatched a waiting worker, so the fallback judges
// feasibility from the worker's live position, while the worker stays
// indexed where it arrived. A task therefore searches the radius
// (Dr + max Dw)·v around itself, where max Dw is the largest patience of
// any worker the pool has held. That bound is lossless: FeasibleAt needs
// the task released before the worker's deadline, so a waiting worker has
// moved less than Dw·v from its indexed location, and a worker that can
// make the deadline is within Dr·v of the task.
//
// The motivation comes from the reproduction itself: with an oracle guide
// POLAR-OP tracks OPT, and its losses under learned predictions are exactly
// the arrivals the guide mishandles. Recovering those greedily preserves
// the O(1)-ish fast path (the fallback search only runs on guide misses)
// and can only add matches, so every competitive-ratio guarantee of
// POLAR-OP carries over.
type Hybrid struct {
	op              *POLAROP
	waitPool        // the fallback, guided
	fallbackMatches int
}

// NewHybrid creates the extension bound to an offline guide.
func NewHybrid(g *guide.Guide) *Hybrid {
	return &Hybrid{op: NewPOLAROP(g), waitPool: waitPool{guided: true}}
}

// Name implements sim.Algorithm.
func (a *Hybrid) Name() string { return "POLAR-OP+G" }

// DispatchesWorkers marks a sim.DispatchingAlgorithm.
func (a *Hybrid) DispatchesWorkers() {}

// FallbackMatches reports how many commits came from the greedy fallback
// in the last run — the "guide miss" rate the extension recovers.
func (a *Hybrid) FallbackMatches() int { return a.fallbackMatches }

// Init implements sim.Algorithm.
func (a *Hybrid) Init(p sim.Platform) {
	a.op.Init(p)
	a.init(p)
	a.fallbackMatches = 0
}

// OnWorkerArrival implements sim.Algorithm.
func (a *Hybrid) OnWorkerArrival(w int, now float64) {
	a.op.OnWorkerArrival(w, now)
	if workerMatched(a.p, w) {
		return // the guide path matched it
	}
	// Guide miss: try the greedy fallback over all waiting tasks; still
	// unmatched, the worker waits there for future fallbacks.
	if a.offerWorker(w, now) {
		a.fallbackMatches++
	}
}

// OnTaskArrival implements sim.Algorithm.
func (a *Hybrid) OnTaskArrival(t int, now float64) {
	a.noteTask(a.p.Task(t))
	a.op.OnTaskArrival(t, now)
	if taskMatched(a.p, t) {
		return
	}
	if a.offerTask(t, now) {
		a.fallbackMatches++
	}
}

// OnFinish implements sim.Algorithm.
func (a *Hybrid) OnFinish(now float64) { a.op.OnFinish(now) }

// Remap implements sim.RetirableAlgorithm: both halves rebase — the
// guide-path queues via POLAROP's remap and the fallback pool's indexes.
func (a *Hybrid) Remap(workers, tasks []int32) {
	a.op.Remap(workers, tasks)
	a.waitPool.Remap(workers, tasks)
}

// workerMatched and taskMatched probe availability at time 0 as a cheap
// "has a match been committed for this object" signal: at time 0 no
// deadline has passed, so unavailability can only come from the matched
// flag. An object available before the guide-path call and unavailable
// afterwards was matched by it.
func workerMatched(p sim.Platform, w int) bool { return !p.WorkerAvailable(w, 0) }

func taskMatched(p sim.Platform, t int) bool { return !p.TaskAvailable(t, 0) }

var _ sim.Algorithm = (*Hybrid)(nil)
