package core

import "ftoa/internal/sim"

// SimpleGreedy is the baseline of Section 2.2, extended from the online
// model of Tong et al. (ICDE 2016): when a new object arrives, it is
// matched immediately with the nearest object of the other kind that
// satisfies the deadline constraint, if any; otherwise it waits in place
// (workers until Sw+Dw, tasks until Sr+Dr). Workers never relocate. It is
// exactly the wait-in-place pool (waitPool), whose methods it inherits for
// retirement and recovery sizing.
type SimpleGreedy struct {
	waitPool
}

// NewSimpleGreedy creates the baseline.
func NewSimpleGreedy() *SimpleGreedy { return &SimpleGreedy{} }

// Name implements sim.Algorithm.
func (a *SimpleGreedy) Name() string { return "SimpleGreedy" }

// Init implements sim.Algorithm.
func (a *SimpleGreedy) Init(p sim.Platform) { a.init(p) }

// OnWorkerArrival implements sim.Algorithm.
func (a *SimpleGreedy) OnWorkerArrival(w int, now float64) { a.offerWorker(w, now) }

// OnTaskArrival implements sim.Algorithm.
func (a *SimpleGreedy) OnTaskArrival(t int, now float64) { a.offerTask(t, now) }

// OnFinish implements sim.Algorithm.
func (a *SimpleGreedy) OnFinish(now float64) {}
