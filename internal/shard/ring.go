// Batched admission: the concurrency front-end of the wire protocol.
// Producers — wire connections, typically — enqueue decoded arrivals into a
// bounded lane (a buffered channel) per shard WITHOUT touching the shard
// lock; each lane has exactly one drainer goroutine that pulls a batch,
// stable-sorts it by arrival timestamp, and admits the whole run under a
// single lock acquisition. Admission semantics are bit-identical to
// the per-call AddWorker/AddTask path: every admission in a drained run
// still executes the full per-admission tail (pending-withdrawal drain,
// session admit, epoch capture, event collection, scheduled retirement, WAL
// record) in order — only the lock handoffs between them are elided.
//
// Backpressure is explicit: when a shard's lane is full the enqueue refuses
// immediately (no blocking, no buffering) and the refusal is counted; the
// wire layer surfaces it as a BUSY reply with a retry-after hint. This
// bounds admission memory by lane capacity instead of connection count.
package shard

import (
	"slices"
	"sync"
	"sync/atomic"

	"ftoa/internal/model"
)

// AdmitResult is the outcome of one lane admission, written to the slot the
// producer registered before the WaitGroup is released. H and Epoch form
// the withdrawal receipt (withdraw.go); Admitted is the owner-stamped
// arrival time, as returned by Router.AddWorker.
//
// The slot is also what travels down the lane: it carries the enqueued
// admission itself, so a producer that keeps its slots in batch memory
// hands arrivals off without allocating.
type AdmitResult struct {
	H        Handle
	Admitted float64
	Epoch    uint64
	Err      error

	op admitOp
}

// AdmitterConfig sizes an Admitter.
type AdmitterConfig struct {
	// Ring is the per-shard lane capacity (rounded up to a power of two,
	// minimum 2). Zero defaults to 1024. This is the backpressure knob: a
	// full lane refuses enqueues.
	Ring int
	// Batch caps how many admissions one drainer pass admits per lock
	// acquisition. Zero defaults to 256. Larger batches amortize the lock
	// better but lengthen the window the shard is unavailable to Advance.
	Batch int
}

// Admitter is the batched admission front of a Router. One lane and one
// drainer goroutine per shard; AddWorker/AddTask are safe for concurrent
// use from any number of producers. Close must not race Add calls — the
// owner (the wire listener) stops its producers first.
type Admitter struct {
	r      *Router
	lanes  []chan *AdmitResult
	batch  int
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	busy   []atomic.Uint64

	// onBatch, when set (tests), observes every drained batch after
	// sorting and before admission, from the drainer goroutine.
	onBatch func(shard int, ops []*AdmitResult)
}

// admitOp is one enqueued admission: the payload plus the WaitGroup to
// release. The producer fills it in before enqueueing; the drainer writes
// the result beside it and releases wg exactly once.
type admitOp struct {
	ad admission
	wg *sync.WaitGroup
}

// finish delivers the outcome. The slot is the producer's again the moment
// wg is released, so nothing here touches it after Done.
func (r *AdmitResult) finish(h Handle, admitted float64, epoch uint64, err error) {
	wg := r.op.wg
	r.H, r.Admitted, r.Epoch, r.Err = h, admitted, epoch, err
	wg.Done()
}

// NewAdmitter starts one drainer per shard of r. The caller owns the
// Admitter's lifecycle and must Close it (before closing the Router's WAL:
// lane-buffered admissions become durable only when drained).
func NewAdmitter(r *Router, cfg AdmitterConfig) *Admitter {
	size := cfg.Ring
	if size <= 0 {
		size = 1024
	}
	// The lane buffer IS the backpressure bound: the documented capacity,
	// rounded up to a power of two and never below 2.
	capacity := 2
	for capacity < size {
		capacity <<= 1
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	n := r.NumShards()
	a := &Admitter{
		r:     r,
		lanes: make([]chan *AdmitResult, n),
		batch: batch,
		stop:  make(chan struct{}),
		busy:  make([]atomic.Uint64, n),
	}
	a.wg.Add(n)
	for i := range a.lanes {
		a.lanes[i] = make(chan *AdmitResult, capacity)
		go a.drainLoop(i)
	}
	return a
}

// AddWorker enqueues a worker admission for the shard owning its location.
// It returns true when accepted: the result will be written to *res and
// wg released once the shard's drainer admits it; until then *res belongs
// to the drainer. False means refused — the target lane is full
// (backpressure; retry after a drain interval) or the Admitter is closed —
// and res/wg are untouched.
func (a *Admitter) AddWorker(w model.Worker, res *AdmitResult, wg *sync.WaitGroup) bool {
	return a.add(workerAdmission(w), res, wg)
}

// AddTask enqueues a task admission; see AddWorker.
func (a *Admitter) AddTask(t model.Task, res *AdmitResult, wg *sync.WaitGroup) bool {
	return a.add(taskAdmission(t), res, wg)
}

func (a *Admitter) add(ad admission, res *AdmitResult, wg *sync.WaitGroup) bool {
	if a.closed.Load() {
		return false
	}
	// The lane count is fixed at creation while the region count can grow
	// (Rebalance), so these are lanes, not shards: a lane serializes the
	// regions that hash onto it and the drainer re-derives each op's owner
	// against the placement current at admission time. On a static
	// topology owner%lanes == owner: one lane per shard.
	lane := a.r.ShardOf(ad.loc) % len(a.lanes)
	// During a topology migration admissions would only queue behind the
	// rebalance write lock; refuse immediately instead so producers get
	// the BUSY + retry hint while the router is quiescing.
	if a.r.migrating.Load() {
		a.busy[lane].Add(1)
		return false
	}
	// The op must be in the slot before the send publishes it, and the Add
	// must precede the send: the drainer may finish the op (and call
	// wg.Done) the instant it is received. A refusal puts both back.
	prev := res.op
	res.op = admitOp{ad: ad, wg: wg}
	wg.Add(1)
	select {
	case a.lanes[lane] <- res:
		return true
	default:
		res.op = prev
		wg.Done()
		a.busy[lane].Add(1)
		return false
	}
}

// Busy returns how many enqueues shard has refused for a full lane.
func (a *Admitter) Busy(shard int) uint64 { return a.busy[shard].Load() }

// BusyTotal sums Busy over all shards.
func (a *Admitter) BusyTotal() uint64 {
	var n uint64
	for i := range a.busy {
		n += a.busy[i].Load()
	}
	return n
}

// Close drains every lane to empty and stops the drainers. The lanes are
// never closed, so an enqueue concurrent with Close is refused, not
// panicked; the caller must have stopped its producers first (an op that
// slips past the closed check during Close may otherwise never be admitted
// nor refused).
func (a *Admitter) Close() {
	if a.closed.Swap(true) {
		return
	}
	close(a.stop)
	a.wg.Wait()
}

// drainLoop is lane's single consumer: batch, sort, admit, repeat.
func (a *Admitter) drainLoop(lane int) {
	defer a.wg.Done()
	ch := a.lanes[lane]
	batch := make([]*AdmitResult, 0, a.batch)
	var mbuf []int
	for {
		batch = batch[:0]
		select {
		case op := <-ch:
			batch = append(batch, op)
		case <-a.stop:
			// Final drain: everything enqueued before Close flipped the flag
			// still gets admitted (and, with a WAL, recorded).
			if len(ch) == 0 {
				return
			}
		}
		// Single consumer: a non-empty lane never blocks the receive.
		for len(batch) < a.batch && len(ch) > 0 {
			batch = append(batch, <-ch)
		}
		// Stable: equal timestamps keep enqueue (lane) order, so a single
		// producer replaying a trace admits in exactly trace order.
		slices.SortStableFunc(batch, byArrival)
		if a.onBatch != nil {
			a.onBatch(lane, batch)
		}
		a.r.admitBatch(batch, &mbuf)
		// The slots are their producers' again: do not pin their memory
		// until the next pass overwrites these pointers.
		clear(batch)
	}
}

// byArrival orders a drained batch by arrival time. A stable sort only
// asks whether x goes before y (-1), which is exactly x.at < y.at, so the
// order is the one a `<` comparison gives, NaN included.
func byArrival(x, y *AdmitResult) int {
	switch {
	case x.op.ad.at < y.op.ad.at:
		return -1
	case y.op.ad.at < x.op.ad.at:
		return 1
	}
	return 0
}

// admitBatch admits one drained, timestamp-sorted batch from a lane.
// Each op is routed against the placement current NOW — a Rebalance may
// have moved region boundaries since the op was enqueued to its lane, and
// only the current owner's session may admit it. A border op takes the
// general path (Router.admit) on its own — mirroring locks neighbor shards
// and must not happen under the owner's lock; a maximal same-owner interior
// run between them is installed under one lock acquisition, each admission
// still getting the full per-admission sequence (installLocked).
func (r *Router) admitBatch(ops []*AdmitResult, mbuf *[]int) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	for i := 0; i < len(ops); {
		var owner int
		owner, *mbuf = ts.route(ops[i].op.ad.loc, (*mbuf)[:0])
		if len(*mbuf) > 0 {
			ops[i].finish(r.admit(ts, owner, *mbuf, &ops[i].op.ad))
			i++
			continue
		}
		j := i + 1
		for ; j < len(ops); j++ {
			if o, m := ts.route(ops[j].op.ad.loc, (*mbuf)[:0]); o != owner || len(m) > 0 {
				break
			}
		}
		si := ts.shards[owner]
		func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			for ; i < j; i++ {
				si.drainPendingLocked()
				ops[i].finish(si.installLocked(r, &ops[i].op.ad, nil, false))
			}
		}()
		// Interior admissions can still settle mirrored counterparties (a
		// fresh worker matching a ghost task); retractions are applied after
		// the run, never under this shard's lock.
		r.applyPending(ts)
	}
}
