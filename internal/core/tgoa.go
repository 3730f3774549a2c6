package core

import (
	"ftoa/internal/model"
	"ftoa/internal/sim"
)

// TGOA is the two-sided online algorithm of Tong et al. (ICDE 2016) — the
// state-of-the-art whose 0.25 competitive ratio (random-order model) the
// paper's POLAR-OP nearly doubles. It is included as an additional
// reference baseline beyond the paper's own comparison set.
//
// The algorithm splits the arrival sequence in half. Objects in the first
// half are matched greedily (nearest feasible counterpart). For an object
// in the second half, the platform computes a maximum matching over *all*
// objects seen so far and commits the new object's pair only if its partner
// in that hypothetical optimal matching is still actually available —
// "greedy first half, optimal second half". The hypothetical matching is
// maintained incrementally: each arrival runs one augmenting-path search,
// so the total cost is O(n·E) rather than n recomputations.
//
// TGOA is inherently closed-world: locating the halfway point requires the
// total arrival count, which it takes from the session's Hints (a replay
// supplies the exact population). In a live session with zero hints the
// split never triggers and TGOA degrades to its greedy phase.
//
// The virtual matching is kept in TGOA's own arrival-ordered ghost arenas
// (a private copy of every admitted object), not in platform handles:
// the hypothetical optimum ranges over ALL objects ever seen — matched,
// expired and withdrawn ones included — so it must survive arena
// retirement and withdrawal intact for both to stay behaviour-neutral. A
// withdrawn object's ghost stays in the virtual matching on purpose; the
// second-half commit path re-checks availability through the platform,
// which reports it dead. This means TGOA's memory grows with lifetime
// arrivals by design (the price of its competitive analysis); only the
// wait-in-place pool compacts: a withdrawn second-half waiter leaves its
// index at the next search that passes over it or, at the latest, at
// Retire.
type TGOA struct {
	// waitPool is the greedy first half, and holds the second half's
	// waiters too, keyed by platform handle and rebased by Remap.
	waitPool

	total   int // hinted |W| + |R|, to locate the halfway point; 0 = unknown
	arrived int

	// Ghost arenas: one entry per arrival, in arrival order, never
	// compacted. Internal ids (indexes into ws/ts) are the nodes of the
	// virtual matching; i2hW/i2hT translate them to current platform
	// handles (RetiredHandle once the object is retired).
	ws   []model.Worker
	ts   []model.Task
	i2hW []int32
	i2hT []int32

	// Virtual maximum matching over the ghost arenas, maintained by
	// incremental augmenting paths on the feasibility graph.
	virtW []int32 // virtual partner task (internal id) of each worker, -1 if none
	virtT []int32 // virtual partner worker (internal id) of each task, -1 if none
	mark  []bool  // scratch: visited tasks during the worker-rooted search
	markW []bool  // scratch: visited workers during the task-rooted search
}

// NewTGOA creates the baseline.
func NewTGOA() *TGOA { return &TGOA{} }

// Name implements sim.Algorithm.
func (a *TGOA) Name() string { return "TGOA" }

// Init implements sim.Algorithm.
func (a *TGOA) Init(p sim.Platform) {
	a.init(p)
	h := p.Hints()
	// The phase split needs the full population; a one-sided hint would
	// place the halfway point far too early, so it counts as unknown.
	a.total = 0
	if h.ExpectedWorkers > 0 && h.ExpectedTasks > 0 {
		a.total = h.ExpectedWorkers + h.ExpectedTasks
	}
	a.arrived = 0
	a.ws = a.ws[:0]
	a.ts = a.ts[:0]
	a.i2hW = a.i2hW[:0]
	a.i2hT = a.i2hT[:0]
	a.virtW = a.virtW[:0]
	a.virtT = a.virtT[:0]
	a.mark = a.mark[:0]
	a.markW = a.markW[:0]
}

// secondHalf reports whether the current arrival falls in the
// optimal-matching-guided phase. With no population hint the halfway point
// is unknown and every arrival is treated as first-half.
func (a *TGOA) secondHalf() bool { return a.total > 0 && a.arrived*2 > a.total }

// OnWorkerArrival implements sim.Algorithm.
func (a *TGOA) OnWorkerArrival(w int, now float64) {
	a.arrived++
	iw := int32(len(a.ws))
	a.ws = append(a.ws, *a.p.Worker(w))
	a.i2hW = append(a.i2hW, int32(w))
	a.virtW = append(a.virtW, -1)
	a.markW = append(a.markW, false)
	a.augmentFromWorker(iw)
	if !a.secondHalf() {
		a.offerWorker(w, now) // first half: plain greedy
		return
	}
	worker := a.p.Worker(w)
	velocity := a.p.Velocity()
	// Second half: follow the hypothetical optimal matching. A retired
	// virtual partner (translation -1) is unavailable by construction.
	if it := a.virtW[iw]; it >= 0 {
		if th := a.i2hT[it]; th >= 0 && a.p.TaskAvailable(int(th), now) &&
			model.FeasibleAt(worker, &a.ts[it], worker.Loc, now, velocity) {
			if a.p.TryMatch(w, int(th), now) {
				a.tasks.Remove(int(th))
				return
			}
		}
	}
	a.workers.Insert(w, worker.Loc)
}

// OnTaskArrival implements sim.Algorithm.
func (a *TGOA) OnTaskArrival(t int, now float64) {
	a.arrived++
	it := int32(len(a.ts))
	a.ts = append(a.ts, *a.p.Task(t))
	a.i2hT = append(a.i2hT, int32(t))
	a.virtT = append(a.virtT, -1)
	a.mark = append(a.mark, false)
	a.augmentFromTask(it)
	if !a.secondHalf() {
		a.offerTask(t, now)
		return
	}
	task := a.p.Task(t)
	velocity := a.p.Velocity()
	if iw := a.virtT[it]; iw >= 0 {
		if wh := a.i2hW[iw]; wh >= 0 && a.p.WorkerAvailable(int(wh), now) &&
			model.FeasibleAt(&a.ws[iw], task, a.ws[iw].Loc, now, velocity) {
			if a.p.TryMatch(int(wh), t, now) {
				a.workers.Remove(int(wh))
				return
			}
		}
	}
	a.tasks.Insert(t, task.Loc)
}

// OnFinish implements sim.Algorithm.
func (a *TGOA) OnFinish(now float64) {}

// Remap implements sim.RetirableAlgorithm. The ghost arenas and the
// virtual matching over them are untouched — the hypothetical optimum
// ranges over all objects ever seen, which is exactly why it lives in
// internal ids — so only the handle translations and the pool rebase.
func (a *TGOA) Remap(workers, tasks []int32) {
	for i, h := range a.i2hW {
		if h >= 0 {
			a.i2hW[i] = workers[h]
		}
	}
	for i, h := range a.i2hT {
		if h >= 0 {
			a.i2hT[i] = tasks[h]
		}
	}
	a.waitPool.Remap(workers, tasks)
}

// feasibleWaitInPlace is the pair predicate of TGOA's own online model
// (workers never relocate): the match is struck when the later of the two
// objects arrives, and the worker departs its initial location then.
func feasibleWaitInPlace(w *model.Worker, r *model.Task, velocity float64) bool {
	if r.Release >= w.Deadline() {
		return false
	}
	depart := w.Arrive
	if r.Release > depart {
		depart = r.Release
	}
	return model.FeasibleAt(w, r, w.Loc, depart, velocity)
}

// augmentFromWorker extends the virtual maximum matching with one
// augmenting-path search rooted at a newly arrived worker. Feasibility uses
// the wait-in-place predicate of TGOA's model, so the virtual matching
// approximates the best assignment the algorithm could actually commit.
func (a *TGOA) augmentFromWorker(iw int32) {
	for i := range a.mark {
		a.mark[i] = false
	}
	a.tryAugmentW(iw)
}

func (a *TGOA) tryAugmentW(iw int32) bool {
	velocity := a.p.Velocity()
	worker := &a.ws[iw]
	for it := range a.ts {
		if a.mark[it] || !feasibleWaitInPlace(worker, &a.ts[it], velocity) {
			continue
		}
		a.mark[it] = true
		if a.virtT[it] == -1 || a.tryAugmentW(a.virtT[it]) {
			a.virtT[it] = iw
			a.virtW[iw] = int32(it)
			return true
		}
	}
	return false
}

// augmentFromTask is the symmetric search rooted at a new task: it walks
// workers and recurses through their virtual partners, using the reusable
// markW scratch so the task path is as allocation-free as the worker one.
func (a *TGOA) augmentFromTask(it int32) {
	for i := range a.markW {
		a.markW[i] = false
	}
	a.tryAugmentT(it)
}

func (a *TGOA) tryAugmentT(it int32) bool {
	velocity := a.p.Velocity()
	task := &a.ts[it]
	for iw := range a.ws {
		if a.markW[iw] || !feasibleWaitInPlace(&a.ws[iw], task, velocity) {
			continue
		}
		a.markW[iw] = true
		if a.virtW[iw] == -1 || a.tryAugmentT(a.virtW[iw]) {
			a.virtW[iw] = it
			a.virtT[it] = int32(iw)
			return true
		}
	}
	return false
}

var _ sim.Algorithm = (*TGOA)(nil)
