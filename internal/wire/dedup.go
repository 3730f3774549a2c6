// Server-side idempotency state: a bounded per-client window of
// completed (seq -> result) records. At-least-once delivery (a resilient
// client resends any batch whose ack it lost) becomes exactly-once
// effects: a re-sent op whose seq the window remembers is answered with
// the original receipt instead of being re-applied.
package wire

import (
	"errors"
	"sync"
)

// DedupState classifies a seq lookup against a client's window.
type DedupState int

const (
	// DedupNew: the seq has not been seen; execute and Record it.
	DedupNew DedupState = iota
	// DedupHit: the seq completed earlier; replay the recorded result.
	DedupHit
	// DedupOverrun: the seq is older than the window retains, so the
	// server cannot tell whether it executed. Refuse with StatusErr —
	// never guess at an effectful op.
	DedupOverrun
	// DedupInvalid: seq 0, the reserved "unassigned" sentinel.
	DedupInvalid
)

// ErrClientTableFull reports that the dedup table is at its client
// bound and no client was idle long enough to evict.
var ErrClientTableFull = errors.New("wire: client table full")

// DedupTable holds one ClientWindow per client id, bounded in both
// directions: at most maxClients windows, each remembering at most
// window completed seqs. Windows are created on first use and evicted
// least-recently-used when the table is full.
type DedupTable struct {
	window     int
	maxClients int

	mu      sync.Mutex
	clients map[uint64]*ClientWindow
	// tick is a logical LRU clock: bumped on every Acquire, stamped
	// into the window, so eviction needs no wall time.
	tick uint64
}

// Defaults for NewDedupTable's bounds when zero.
const (
	DefaultDedupWindow = 8192
	DefaultDedupCap    = 1024
)

// NewDedupTable builds a table retaining `window` completed seqs per
// client for up to maxClients clients (zeros pick the defaults).
func NewDedupTable(window, maxClients int) *DedupTable {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	if maxClients <= 0 {
		maxClients = DefaultDedupCap
	}
	return &DedupTable{
		window:     window,
		maxClients: maxClients,
		clients:    make(map[uint64]*ClientWindow),
	}
}

// Acquire returns the window for clientID, creating it on first use.
// When the table is at its client bound, the least-recently-acquired
// window is evicted to make room — unless it is still in use (a batch
// is being processed under its lock), in which case Acquire refuses
// with ErrClientTableFull rather than break an active client's
// exactly-once guarantee.
func (t *DedupTable) Acquire(clientID uint64) (*ClientWindow, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tick++
	if w, ok := t.clients[clientID]; ok {
		w.lastUsed = t.tick
		return w, nil
	}
	if len(t.clients) >= t.maxClients {
		var victim uint64
		var victimW *ClientWindow
		for id, w := range t.clients {
			if w.inUse() {
				continue
			}
			if victimW == nil || w.lastUsed < victimW.lastUsed {
				victim, victimW = id, w
			}
		}
		if victimW == nil {
			return nil, ErrClientTableFull
		}
		delete(t.clients, victim)
	}
	w := &ClientWindow{window: t.window, lastUsed: t.tick}
	t.clients[clientID] = w
	return w, nil
}

// Clients reports the number of tracked client windows.
func (t *DedupTable) Clients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.clients)
}

// ClientWindow is one client's dedup state. Lock it around a whole
// batch: the lock both guards the window and serializes batches for the
// client across connections, so a resend racing its original (the
// client reconnected while the old connection's handler was still
// mid-batch) observes the original's recorded results instead of
// re-executing.
//
// Records live in a ring indexed by seq mod its length. The ring starts
// empty and doubles when two remembered seqs collide, up to the window
// size — at which point the seqs inside the window, being fewer than
// window apart, cannot collide, and a new record simply overwrites the
// forgotten one in its slot. Recording is O(1) amortised however the
// client moves its seq, and a client that sends a handful of requests
// never pays for a full window.
//
// A slot is 40 bytes with no pointers, so the GC never scans the ring: it
// keeps the fields a terminal result carries, and the rare non-empty Msg
// (an ERR's text) lives in msgs beside it, keyed by seq. A message leaves
// msgs with its record — when the slot is overwritten, or when grow drops
// a record that fell below the floor — so msgs never outgrows the ring.
type ClientWindow struct {
	mu       sync.Mutex
	window   int
	maxSeq   uint64 // highest seq ever recorded
	ring     []dedupRecord
	msgs     map[uint64]string // Msg of the ring's records that have one
	lastUsed uint64            // DedupTable LRU stamp, guarded by the table lock
}

// dedupRecord is one ring slot: a recorded Result without RetryAfter
// (BUSY-only, and BUSY is never recorded) and without Msg (see msgs).
// seq 0 (never a valid seq) marks the slot empty.
type dedupRecord struct {
	seq          uint64
	epoch        uint64
	time         float64
	shard, local uint32
	kind, status byte
	applied      bool
}

// result rebuilds the Result recorded in r.
func (w *ClientWindow) result(r *dedupRecord) Result {
	return Result{
		Kind: r.kind, Status: r.status, Shard: r.shard, Local: r.local,
		Epoch: r.epoch, Time: r.time, Applied: r.applied, Msg: w.msgs[r.seq],
	}
}

// Lock serializes the client's batch processing and must be held for
// Lookup/Record.
func (w *ClientWindow) Lock() { w.mu.Lock() }

// Unlock releases the window.
func (w *ClientWindow) Unlock() { w.mu.Unlock() }

// inUse reports whether a batch currently holds the window; called
// under the table lock only (best-effort: a racing Lock is caught by
// the next eviction attempt).
func (w *ClientWindow) inUse() bool {
	if !w.mu.TryLock() {
		return true
	}
	w.mu.Unlock()
	return false
}

// floor is the highest forgotten seq. The window is exactly the seqs in
// (floor, maxSeq]: a record at or below the floor is refused even while
// its slot has not been overwritten yet, so what Lookup answers depends
// only on what was recorded, never on the ring's size.
func (w *ClientWindow) floor() uint64 {
	if w.maxSeq < uint64(w.window) {
		return 0
	}
	return w.maxSeq - uint64(w.window)
}

// Lookup classifies seq. Callers must hold Lock.
func (w *ClientWindow) Lookup(seq uint64) (Result, DedupState) {
	if seq == 0 {
		return Result{}, DedupInvalid
	}
	if seq <= w.floor() {
		return Result{}, DedupOverrun
	}
	if n := uint64(len(w.ring)); n > 0 {
		if r := &w.ring[seq%n]; r.seq == seq {
			return w.result(r), DedupHit
		}
	}
	return Result{}, DedupNew
}

// Record stores a completed op's terminal result (StatusOK or
// StatusErr — BUSY is retryable and must not be recorded) and slides
// the window, forgetting seqs older than maxSeq-window. Callers must
// hold Lock.
func (w *ClientWindow) Record(seq uint64, res Result) {
	if seq == 0 || res.Status == StatusBusy {
		return
	}
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	floor := w.floor()
	if seq <= floor {
		return // already outside the window
	}
	// Make room: the slot must be empty, forgotten, or this seq's own.
	// At full size no two seqs inside the window share a slot.
	for len(w.ring) < w.window {
		if n := uint64(len(w.ring)); n > 0 {
			if held := w.ring[seq%n].seq; held <= floor || held == seq {
				break
			}
		}
		w.grow(floor)
	}
	r := &w.ring[seq%uint64(len(w.ring))]
	delete(w.msgs, r.seq)
	*r = dedupRecord{
		seq: seq, epoch: res.Epoch, time: res.Time, shard: res.Shard, local: res.Local,
		kind: res.Kind, status: res.Status, applied: res.Applied,
	}
	if res.Msg != "" {
		if w.msgs == nil {
			w.msgs = make(map[uint64]string)
		}
		w.msgs[seq] = res.Msg
	}
}

// grow doubles the ring (to at most the window), carrying over the
// records still inside the window.
func (w *ClientWindow) grow(floor uint64) {
	ring := make([]dedupRecord, min(max(2*len(w.ring), 16), w.window))
	n := uint64(len(ring))
	for i := range w.ring {
		if r := &w.ring[i]; r.seq > floor {
			ring[r.seq%n] = *r
		} else {
			delete(w.msgs, r.seq)
		}
	}
	w.ring = ring
}
