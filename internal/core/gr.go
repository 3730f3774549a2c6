package core

import (
	"ftoa/internal/flow"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/spatial"
)

// GR is the batch-window baseline of To, Shahabi and Kazemi (ACM TSAS
// 2015), the state-of-the-art dynamic assignment algorithm the paper
// compares against: arrivals are gathered into fixed time windows and a
// maximum matching among the currently available workers and tasks is
// committed at every window boundary. Workers wait in place between
// batches (no relocation).
type GR struct {
	p      sim.Platform
	window float64

	// waitingWorkers and waitingTasks list the handles that arrived since
	// they were last matched or dropped, in arrival order.
	waitingWorkers sim.Pages[int32]
	waitingTasks   sim.Pages[int32]

	// ix is the per-session candidate index, created at the first flush
	// and Reset between windows so steady-state flushes allocate nothing
	// for spatial lookups. ixSizedFor records the population it was sized
	// for, so a bursty window that dwarfs the estimate triggers a
	// re-grid instead of degenerating to over-full buckets.
	ix         *spatial.Index
	ixSizedFor int
	adj        [][]int32
	cands      []int
	// hk keeps the Hopcroft–Karp scratch (match arrays, BFS levels and
	// queue) alive across batch windows — the same reusable-scratch
	// treatment Dinic received — so steady-state flushes run the matching
	// with zero allocations beyond adjacency growth.
	hk flow.BipartiteMatcher
}

// NewGR creates a GR instance with the given batching window (in the same
// time units as the instance). Window must be positive (NaN panics too).
func NewGR(window float64) *GR {
	if !(window > 0) {
		panic("core: GR window must be positive")
	}
	return &GR{window: window}
}

// Name implements sim.Algorithm.
func (a *GR) Name() string { return "GR" }

// Init implements sim.Algorithm.
func (a *GR) Init(p sim.Platform) {
	a.p = p
	a.waitingWorkers.Truncate(0)
	a.waitingTasks.Truncate(0)
	a.ix = nil // the service area (and bounds) may differ between sessions
	p.Schedule(a.window)
}

// OnWorkerArrival implements sim.Algorithm.
func (a *GR) OnWorkerArrival(w int, now float64) {
	a.waitingWorkers.Push(int32(w))
}

// OnTaskArrival implements sim.Algorithm.
func (a *GR) OnTaskArrival(t int, now float64) {
	a.waitingTasks.Push(int32(t))
}

// OnTimer implements sim.TimerAlgorithm: a window boundary.
func (a *GR) OnTimer(now float64) {
	a.flush(now)
	a.p.Schedule(now + a.window)
}

// OnFinish implements sim.Algorithm: match whatever is still pending.
func (a *GR) OnFinish(now float64) {
	a.flush(now)
}

// Remap implements sim.RetirableAlgorithm: the waiting lists are rebased
// in place, dropping retired handles. flush compacts the very same
// entries (a retired object fails its availability check) in the same
// order, so a window flushed after a retirement commits exactly what it
// would have without one — including when the retirement lands between
// Schedule and the pending OnTimer. The batch index is rebuilt from local
// ids every flush and needs no remapping. The lists hold each handle at
// most once, so they follow the session's refit rule on its own terms.
func (a *GR) Remap(workers, tasks []int32) {
	remapHandles(&a.waitingWorkers, workers)
	remapHandles(&a.waitingTasks, tasks)
	a.waitingWorkers.Refit(len(workers))
	a.waitingTasks.Refit(len(tasks))
}

// flush runs a maximum matching over the currently available waiting
// objects and commits it.
func (a *GR) flush(now float64) {
	velocity := a.p.Velocity()

	// Compact away objects that are matched or expired.
	liveW, liveT := &a.waitingWorkers, &a.waitingTasks
	nW := 0
	for i := range liveW.Len() {
		if w := *liveW.At(i); a.p.WorkerAvailable(int(w), now) {
			*liveW.At(nW) = w
			nW++
		}
	}
	liveW.Truncate(nW)
	nT := 0
	for i := range liveT.Len() {
		if t := *liveT.At(i); a.p.TaskAvailable(int(t), now) {
			*liveT.At(nT) = t
			nT++
		}
	}
	liveT.Truncate(nT)
	if nW == 0 || nT == 0 {
		return
	}

	// Candidate edges via the session-lifetime spatial index over waiting
	// workers, sized for the expected batch population and Reset between
	// windows so steady-state flushes reuse all of its storage. A batch
	// that outgrows the sizing estimate 4× (bursty arrivals) re-grids at
	// the observed population rather than scanning over-full buckets for
	// the rest of the session.
	if a.ix == nil || nW > 4*a.ixSizedFor {
		expected := nW
		h := a.p.Hints()
		if h.Horizon > 0 && h.ExpectedWorkers > 0 {
			if e := int(float64(h.ExpectedWorkers) * a.window / h.Horizon); e > expected {
				expected = e
			}
		}
		a.ixSizedFor = expected
		a.ix = spatial.NewIndex(a.p.Bounds(), expected)
	} else {
		a.ix.Reset()
	}
	for li := range nW {
		a.ix.Insert(li, a.p.Worker(int(*liveW.At(li))).Loc) // ids are local batch indices
	}
	if cap(a.adj) >= nT {
		a.adj = a.adj[:nT]
		for i := range a.adj {
			a.adj[i] = a.adj[i][:0]
		}
	} else {
		a.adj = make([][]int32, nT)
	}
	adj := a.adj
	for ti := range nT {
		task := a.p.Task(int(*liveT.At(ti)))
		budget := task.Deadline() - now
		if budget < 0 {
			continue
		}
		a.cands = a.ix.Within(task.Loc, budget*velocity, a.cands[:0])
		for _, li := range a.cands {
			worker := a.p.Worker(int(*liveW.At(li)))
			if model.FeasibleAt(worker, task, worker.Loc, now, velocity) {
				adj[ti] = append(adj[ti], int32(li))
			}
		}
	}

	matchT, _, _ := a.hk.Match(nT, nW, adj)
	for ti, li := range matchT {
		if li < 0 {
			continue
		}
		a.p.TryMatch(int(*liveW.At(int(li))), int(*liveT.At(ti)), now)
	}
	// Matched objects are filtered out at the next flush via availability.
}
