package sim

import (
	"fmt"

	"ftoa/internal/model"
)

// SessionEventKind distinguishes the lifecycle events a session emits.
type SessionEventKind uint8

const (
	// EventMatch is a committed worker-task pair.
	EventMatch SessionEventKind = iota
	// EventWorkerExpired is a worker whose deadline (Arrive+Patience)
	// passed while it was unmatched: the paper's "worker leaves the
	// platform unserved".
	EventWorkerExpired
	// EventTaskExpired is a task whose deadline (Release+Expiry) passed
	// while it was unmatched: the task can no longer be served.
	EventTaskExpired
)

func (k SessionEventKind) String() string {
	switch k {
	case EventMatch:
		return "match"
	case EventWorkerExpired:
		return "worker-expired"
	case EventTaskExpired:
		return "task-expired"
	default:
		return fmt.Sprintf("SessionEventKind(%d)", uint8(k))
	}
}

// SessionEvent is one entry of a session's lifecycle stream: every commit
// and every expiry, in fire order with non-decreasing Time. Worker and
// Task are session handles; the side not involved in an expiry is -1.
//
//   - EventMatch: Worker and Task are the committed pair, Time is the
//     commit time.
//   - EventWorkerExpired: Worker is the expired handle, Task is -1, Time
//     is the worker's deadline.
//   - EventTaskExpired: Task is the expired handle, Worker is -1, Time is
//     the task's deadline.
//
// Expiry semantics are mode-independent and purely observational: an
// expiry is emitted iff the object's deadline passed while it was
// unmatched, and emitting it never alters availability or algorithm state
// (in Strict mode deadlines are already enforced by the availability
// checks; in AssumeGuide mode an expired object may still be matched
// later, per the paper's counting assumption, so a worker expiry may be
// followed by a match of the same handle).
type SessionEvent struct {
	Kind   SessionEventKind
	Worker int
	Task   int
	Time   float64
}

// expiryQueue is the platform-side deadline queue of one session side. It
// holds handles only: an entry's deadline is read back from the side's
// arena (workers or tasks, whichever is set), which stores the clamped
// arrival the deadline is computed from, so each object costs the queue 4
// bytes and no copy of its window. Admission times are clamped monotone,
// so with the constant per-side windows of the paper's workloads deadlines
// arrive already sorted: those go into a FIFO with O(1) push and pop. A
// deadline below the FIFO tail (variable windows) overflows into a small
// binary min-heap, so arbitrary deadline orders stay correct while the hot
// path never pays for them.
type expiryQueue struct {
	fifo []int32 // non-decreasing deadlines, consumed from head
	head int
	heap []int32 // out-of-order overflow, sift-managed

	workers *Pages[model.Worker]
	tasks   *Pages[model.Task]
}

// at returns the deadline of handle h.
func (q *expiryQueue) at(h int32) float64 {
	if q.workers != nil {
		return q.workers.At(int(h)).Deadline()
	}
	return q.tasks.At(int(h)).Deadline()
}

// less orders handles by deadline, then by handle for determinism.
func (q *expiryQueue) less(a, b int32) bool {
	if da, db := q.at(a), q.at(b); da != db {
		return da < db
	}
	return a < b
}

func (q *expiryQueue) reset() {
	q.fifo = q.fifo[:0]
	q.head = 0
	q.heap = q.heap[:0]
}

func (q *expiryQueue) push(h int32) {
	n := len(q.fifo)
	if q.head == n {
		// FIFO drained: restart it from the front, keeping capacity.
		q.fifo = append(q.fifo[:0], h)
		q.head = 0
		return
	}
	if q.at(q.fifo[n-1]) <= q.at(h) {
		if q.head >= 4096 && 2*q.head >= n {
			// Reclaim the consumed prefix so a never-empty long-lived
			// queue stays proportional to its pending entries.
			n = copy(q.fifo, q.fifo[q.head:])
			q.fifo = q.fifo[:n]
			q.head = 0
		}
		q.fifo = append(q.fifo, h)
		return
	}
	// Out-of-order deadline: overflow heap, sift-up.
	q.heap = append(q.heap, h)
	for i := len(q.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// fromHeap reports whether the earliest pending entry is the heap's top;
// the queue must be non-empty.
func (q *expiryQueue) fromHeap() bool {
	return q.head == len(q.fifo) || len(q.heap) > 0 && q.less(q.heap[0], q.fifo[q.head])
}

// peek returns the earliest pending handle and its deadline without
// removing it.
func (q *expiryQueue) peek() (h int32, at float64, ok bool) {
	if q.head == len(q.fifo) && len(q.heap) == 0 {
		return 0, 0, false
	}
	if q.fromHeap() {
		h = q.heap[0]
	} else {
		h = q.fifo[q.head]
	}
	return h, q.at(h), true
}

// pop removes the earliest pending entry; the queue must be non-empty.
func (q *expiryQueue) pop() {
	if !q.fromHeap() {
		q.head++
		return
	}
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	q.siftDown(0)
}

// siftDown restores the min-heap property below index i.
func (q *expiryQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(h[l], h[min]) {
			min = l
		}
		if r < n && q.less(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// remap rebases the queue across an arena epoch, after the arena itself has
// been compacted: entries of retired objects are dropped (a retired object
// is matched or already past its fired deadline, so its pending entry could
// only ever have been suppressed — dropping it leaves the emitted event
// stream unchanged) and surviving entries get their new handles, which read
// the same deadlines from the compacted arena. The FIFO filter preserves its
// sorted order; the heap is filtered and re-heapified. Everything is in
// place, reclaiming the consumed FIFO prefix as a side effect.
func (q *expiryQueue) remap(m []int32) {
	out := q.fifo[:0]
	for _, h := range q.fifo[q.head:] {
		if n := m[h]; n >= 0 {
			out = append(out, n)
		}
	}
	q.fifo = out
	q.head = 0
	hout := q.heap[:0]
	for _, h := range q.heap {
		if n := m[h]; n >= 0 {
			hout = append(hout, n)
		}
	}
	q.heap = hout
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}
