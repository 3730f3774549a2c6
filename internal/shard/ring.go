// Batched MPSC admission: the concurrency front-end of the wire protocol
// (ROADMAP item 5). Producers — wire connections, typically — enqueue
// decoded arrivals into a bounded lock-free ring per shard WITHOUT touching
// the shard lock; each shard has exactly one drainer goroutine that pulls a
// batch, stable-sorts it by arrival timestamp, and admits the whole run
// under a single lock acquisition. Admission semantics are bit-identical to
// the per-call AddWorker/AddTask path: every admission in a drained run
// still executes the full per-admission tail (pending-withdrawal drain,
// session admit, epoch capture, event collection, scheduled retirement, WAL
// record) in order — only the lock handoffs between them are elided.
//
// Backpressure is explicit: when a shard's ring is full the enqueue refuses
// immediately (no blocking, no buffering) and the refusal is counted; the
// wire layer surfaces it as a BUSY reply with a retry-after hint. This
// bounds admission memory by ring capacity instead of connection count.
package shard

import (
	"sort"
	"sync"
	"sync/atomic"

	"ftoa/internal/model"
)

// AdmitResult is the outcome of one ring admission, written to the slot the
// producer registered before the WaitGroup is released. H and Epoch form
// the withdrawal receipt (withdraw.go); Admitted is the owner-stamped
// arrival time, as returned by Router.AddWorker.
type AdmitResult struct {
	H        Handle
	Admitted float64
	Epoch    uint64
	Err      error
}

// AdmitterConfig sizes an Admitter.
type AdmitterConfig struct {
	// Ring is the per-shard ring capacity (rounded up to a power of two).
	// Zero defaults to 1024. This is the backpressure knob: a full ring
	// refuses enqueues.
	Ring int
	// Batch caps how many admissions one drainer pass admits per lock
	// acquisition. Zero defaults to 256. Larger batches amortize the lock
	// better but lengthen the window the shard is unavailable to Advance.
	Batch int
}

// Admitter is the batched admission front of a Router. One ring and one
// drainer goroutine per shard; AddWorker/AddTask are safe for concurrent
// use from any number of producers. Close must not race Add calls — the
// owner (the wire listener) stops its producers first.
type Admitter struct {
	r      *Router
	rings  []*admitRing
	wake   []chan struct{}
	batch  int
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	busy   []atomic.Uint64

	// onBatch, when set (tests), observes every drained batch after
	// sorting and before admission, from the drainer goroutine.
	onBatch func(shard int, ops []*admitOp)
}

// admitOp is one enqueued admission: the payload plus where to deliver the
// result. The producer registers res/wg before enqueueing; the drainer
// writes *res and releases wg exactly once.
type admitOp struct {
	ad  admission
	res *AdmitResult
	wg  *sync.WaitGroup
}

func (op *admitOp) finish(h Handle, admitted float64, epoch uint64, err error) {
	*op.res = AdmitResult{H: h, Admitted: admitted, Epoch: epoch, Err: err}
	op.wg.Done()
}

// NewAdmitter starts one drainer per shard of r. The caller owns the
// Admitter's lifecycle and must Close it (before closing the Router's WAL:
// ring-buffered admissions become durable only when drained).
func NewAdmitter(r *Router, cfg AdmitterConfig) *Admitter {
	ringSize := cfg.Ring
	if ringSize <= 0 {
		ringSize = 1024
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	n := r.NumShards()
	a := &Admitter{
		r:     r,
		rings: make([]*admitRing, n),
		wake:  make([]chan struct{}, n),
		batch: batch,
		stop:  make(chan struct{}),
		busy:  make([]atomic.Uint64, n),
	}
	for i := 0; i < n; i++ {
		a.rings[i] = newAdmitRing(ringSize)
		a.wake[i] = make(chan struct{}, 1)
	}
	a.wg.Add(n)
	for i := 0; i < n; i++ {
		go a.drainLoop(i)
	}
	return a
}

// AddWorker enqueues a worker admission for the shard owning its location.
// It returns true when accepted: the result will be written to *res and
// wg released once the shard's drainer admits it. False means refused —
// the target ring is full (backpressure; retry after a drain interval) or
// the Admitter is closed — and res/wg are untouched.
func (a *Admitter) AddWorker(w model.Worker, res *AdmitResult, wg *sync.WaitGroup) bool {
	return a.add(&admitOp{ad: workerAdmission(w), res: res, wg: wg})
}

// AddTask enqueues a task admission; see AddWorker.
func (a *Admitter) AddTask(t model.Task, res *AdmitResult, wg *sync.WaitGroup) bool {
	return a.add(&admitOp{ad: taskAdmission(t), res: res, wg: wg})
}

func (a *Admitter) add(op *admitOp) bool {
	if a.closed.Load() {
		return false
	}
	// The ring count is fixed at creation while the region count can grow
	// (Rebalance), so rings are lanes, not shards: a lane serializes the
	// regions that hash onto it and the drainer re-derives each op's owner
	// against the placement current at admission time. On a static
	// topology owner%lanes == owner, preserving the historical one
	// ring/one shard layout bit for bit.
	lane := a.r.ShardOf(op.ad.loc) % len(a.rings)
	// During a topology migration admissions would only queue behind the
	// rebalance write lock; refuse immediately instead so producers get
	// the BUSY + retry hint while the router is quiescing.
	if a.r.migrating.Load() {
		a.busy[lane].Add(1)
		return false
	}
	// The Add must precede publication: the drainer may finish the op (and
	// call wg.Done) the instant the slot is visible.
	op.wg.Add(1)
	if !a.rings[lane].enqueue(op) {
		op.wg.Done()
		a.busy[lane].Add(1)
		return false
	}
	select {
	case a.wake[lane] <- struct{}{}:
	default:
	}
	return true
}

// Busy returns how many enqueues shard has refused for a full ring.
func (a *Admitter) Busy(shard int) uint64 { return a.busy[shard].Load() }

// BusyTotal sums Busy over all shards.
func (a *Admitter) BusyTotal() uint64 {
	var n uint64
	for i := range a.busy {
		n += a.busy[i].Load()
	}
	return n
}

// Close drains every ring to empty and stops the drainers. Enqueues
// concurrent with Close are refused; the caller must have stopped its
// producers first (an op that slips past the closed check during Close may
// otherwise never be admitted nor refused).
func (a *Admitter) Close() {
	if a.closed.Swap(true) {
		return
	}
	close(a.stop)
	a.wg.Wait()
}

// drainLoop is shard's single consumer: batch, sort, admit, repeat.
func (a *Admitter) drainLoop(shard int) {
	defer a.wg.Done()
	ring := a.rings[shard]
	batch := make([]*admitOp, 0, a.batch)
	var mbuf []int
	for {
		batch = batch[:0]
		for len(batch) < a.batch {
			op, ok := ring.dequeue()
			if !ok {
				break
			}
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			select {
			case <-a.wake[shard]:
				continue
			case <-a.stop:
				// Final drain: everything enqueued before Close flipped the
				// flag still gets admitted (and, with a WAL, recorded).
				for {
					op, ok := ring.dequeue()
					if !ok {
						return
					}
					a.r.admitBatch([]*admitOp{op}, &mbuf)
				}
			}
		}
		// Stable: equal timestamps keep enqueue (ring) order, so a single
		// producer replaying a trace admits in exactly trace order.
		sort.SliceStable(batch, func(i, j int) bool {
			return batch[i].ad.at < batch[j].ad.at
		})
		if a.onBatch != nil {
			a.onBatch(shard, batch)
		}
		a.r.admitBatch(batch, &mbuf)
	}
}

// admitBatch admits one drained, timestamp-sorted batch from a ring lane.
// Each op is routed against the placement current NOW — a Rebalance may
// have moved region boundaries since the op was enqueued to its lane, and
// only the current owner's session may admit it. A border op takes the
// general path (Router.admit) on its own — mirroring locks neighbor shards
// and must not happen under the owner's lock; a maximal same-owner interior
// run between them is installed under one lock acquisition, each admission
// still getting the full per-admission sequence (installLocked).
func (r *Router) admitBatch(ops []*admitOp, mbuf *[]int) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	for i := 0; i < len(ops); {
		var owner int
		owner, *mbuf = ts.route(ops[i].ad.loc, (*mbuf)[:0])
		if len(*mbuf) > 0 {
			ops[i].finish(r.admit(ts, owner, *mbuf, &ops[i].ad))
			i++
			continue
		}
		j := i + 1
		for ; j < len(ops); j++ {
			if o, m := ts.route(ops[j].ad.loc, (*mbuf)[:0]); o != owner || len(m) > 0 {
				break
			}
		}
		si := ts.shards[owner]
		func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			for ; i < j; i++ {
				si.drainPendingLocked()
				ops[i].finish(si.installLocked(r, &ops[i].ad, nil, false))
			}
		}()
		// Interior admissions can still settle mirrored counterparties (a
		// fresh worker matching a ghost task); retractions are applied after
		// the run, never under this shard's lock.
		r.applyPending(ts)
	}
}

// --- bounded MPSC ring ------------------------------------------------

// admitRing is a bounded multi-producer single-consumer queue (Vyukov's
// array queue): each slot carries a sequence word that encodes whether it
// is free for the enqueuer (seq == pos) or ready for the dequeuer
// (seq == pos+1). Producers claim positions by CAS on enq; the single
// consumer advances deq without contention.
type admitRing struct {
	mask  uint64
	slots []ringSlot
	enq   atomic.Uint64
	deq   atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	op  *admitOp
}

func newAdmitRing(size int) *admitRing {
	// Minimum 2: with one slot the ready marker (pos+1) and the next
	// lap's free marker (pos+capacity) coincide and the seq protocol
	// cannot tell a full ring from an empty one.
	n := 2
	for n < size {
		n <<= 1
	}
	q := &admitRing{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// enqueue publishes op; false means the ring is full.
func (q *admitRing) enqueue(op *admitOp) bool {
	for {
		pos := q.enq.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if q.enq.CompareAndSwap(pos, pos+1) {
				slot.op = op
				slot.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The slot still holds the entry from one lap ago: full.
			return false
		default:
			// Another producer claimed pos; reload and retry.
		}
	}
}

// dequeue pops the oldest entry; single-consumer only.
func (q *admitRing) dequeue() (*admitOp, bool) {
	pos := q.deq.Load()
	slot := &q.slots[pos&q.mask]
	if slot.seq.Load() != pos+1 {
		return nil, false
	}
	op := slot.op
	slot.op = nil
	slot.seq.Store(pos + q.mask + 1)
	q.deq.Store(pos + 1)
	return op, true
}
