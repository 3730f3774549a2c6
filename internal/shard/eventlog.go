// The event log: the router's one store for the merged lifecycle stream.
//
// The paper's output is an online matching — an irrevocable, arrival-
// ordered sequence of commits and deadline expiries. The router draws
// every event's Seq from one atomic counter, so the sequence space is
// dense and a sequence number is an address: the log is a table of
// fixed-size segments, seq s lives in slot s%segSize of segment
// s/segSize as a 32-byte record, and segments are allocated on first
// write. collectLocked appends each sequenced batch exactly once (WAL
// replay goes through the same call); Events, Subscribe and Matches are
// all reads of this table, addressed by Seq.
//
// Batches from different shards race, so they can arrive out of Seq
// order. frontier is one past the highest CONTIGUOUSLY appended seq and
// readers only see below it — a seq above a still-unfilled hole stays
// invisible until the hole fills, which keeps reads gap-free without
// waiting on any shard lock.
//
// The readable window is exactly [oldest, frontier) with
// oldest = max(base, head-capacity): head is one past the highest seq
// appended, capacity the configured retention (zero: unbounded) and base
// the recovery floor (resume). Segments wholly below oldest are freed.
// An event appended below oldest (a shard that stalled for more than
// capacity events, or shard-by-shard WAL replay) is stored if its
// segment is still live and dropped if not; either way it is outside
// the window, exactly as if it had arrived in order and been evicted.
//
// Matches are a filtered read: the page of events Events would return,
// with only the match events copied out. Its cursor is the same Seq, so a
// page may be short or empty while the cursor advances.
package shard

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ftoa/internal/sim"
)

const (
	segShift = 10
	segSize  = 1 << segShift
	segMask  = segSize - 1
)

// record is one stored event: an Event less its Seq, which is the slot's
// address, with handles and shard ids held in the 32 bits they already
// fit in (sessions keep handles as int32, the WAL and the wire carry shard
// ids as 32-bit, and newRouterShell refuses a grid whose ids would not).
// At 32 bytes a segment's array is exactly one 32 KiB size class.
type record struct {
	time                                        float64
	worker, task, shard, workerShard, taskShard int32
	kind                                        sim.SessionEventKind
}

// pack stores ev one field at a time: a composite literal is built on the
// stack with narrow stores and copied out with wide loads, which stalls
// store forwarding on the append every emission makes.
func (r *record) pack(ev *Event) {
	r.time = ev.Time
	r.worker = int32(ev.Worker)
	r.task = int32(ev.Task)
	r.shard = int32(ev.Shard)
	r.workerShard = int32(ev.WorkerShard)
	r.taskShard = int32(ev.TaskShard)
	r.kind = ev.Kind
}

func (r *record) unpack(seq uint64) Event {
	return Event{
		Seq:          seq,
		Shard:        int(r.shard),
		SessionEvent: sim.SessionEvent{Kind: r.kind, Worker: int(r.worker), Task: int(r.task), Time: r.time},
		WorkerShard:  int(r.workerShard),
		TaskShard:    int(r.taskShard),
	}
}

// segment holds the events of one aligned run of segSize sequence
// numbers. set marks the slots written. The records are their own
// allocation, so the header's bitmap does not push the array past its
// size class; a recycled segment clears only the bitmap, and slots left
// over from its previous run stay unset until written.
type segment struct {
	ev  *[segSize]record
	set [segSize / 64]uint64
}

func (s *segment) has(j uint64) bool { return s != nil && s.set[j>>6]>>(j&63)&1 != 0 }

// eventLog is the router-wide store. mu guards everything; oldest and
// frontier are atomics only so EventSub.Wait and the cursor accessors can
// read one of them without the lock (a consistent pair needs mu).
type eventLog struct {
	mu       sync.Mutex
	capacity uint64 // retained window in events; 0 keeps everything
	base     uint64 // recovery floor: no event below it will ever exist
	head     uint64 // one past the highest seq appended
	oldest   atomic.Uint64
	frontier atomic.Uint64
	// segs[i] is segment first+i, nil until first written. first is
	// always oldest>>segShift: everything below it has been freed.
	first uint64
	segs  []*segment
	// spare is the most recently freed segment. At steady state under a
	// bounded capacity every new segment follows a free, so appends stop
	// allocating.
	spare *segment

	subs      map[*EventSub]struct{}
	published uint64 // events appended
	wakeups   uint64 // notifications delivered to armed waiters
}

func newEventLog(capacity uint64) *eventLog {
	return &eventLog{capacity: capacity, subs: make(map[*EventSub]struct{})}
}

// append stores one emission batch (already sequenced, Seq ascending) and
// wakes armed subscribers. Called from collectLocked while the emitting
// shard's lock is held; the lock order shard → log.mu is safe because
// readers never hold log.mu while entering the router.
func (l *eventLog) append(evs []Event) {
	l.mu.Lock()
	if h := evs[len(evs)-1].Seq + 1; h > l.head {
		l.head = h
		l.evictLocked()
	}
	for i := range evs {
		ev := &evs[i]
		idx := ev.Seq >> segShift
		if idx < l.first {
			continue
		}
		for uint64(len(l.segs)) <= idx-l.first {
			l.segs = append(l.segs, nil)
		}
		s := l.segs[idx-l.first]
		if s == nil {
			if s = l.spare; s != nil {
				l.spare = nil
			} else {
				s = &segment{ev: new([segSize]record)}
			}
			l.segs[idx-l.first] = s
		}
		j := ev.Seq & segMask
		s.ev[j].pack(ev)
		s.set[j>>6] |= 1 << (j & 63)
	}
	l.published += uint64(len(evs))
	f := l.frontier.Load()
	for f < l.head && l.seg(f).has(f&segMask) {
		f++
	}
	l.frontier.Store(f)
	for sub := range l.subs {
		if sub.armed.CompareAndSwap(true, false) {
			select {
			case sub.notify <- struct{}{}:
				l.wakeups++
			default:
			}
		}
	}
	l.mu.Unlock()
}

// seg returns the segment holding seq, nil when it was never written.
// seq must not be below the first live segment.
func (l *eventLog) seg(seq uint64) *segment {
	if i := seq>>segShift - l.first; i < uint64(len(l.segs)) {
		return l.segs[i]
	}
	return nil
}

// evictLocked re-derives oldest from head and frees the segments wholly
// below it. A hole evicted underneath the frontier drags the frontier up
// with it: those seqs can no longer be served, and a frontier below
// oldest would wedge every reader.
func (l *eventLog) evictLocked() {
	oldest := l.base
	if l.capacity > 0 && l.head > l.capacity && l.head-l.capacity > oldest {
		oldest = l.head - l.capacity
	}
	if oldest <= l.oldest.Load() {
		return
	}
	l.oldest.Store(oldest)
	if l.frontier.Load() < oldest {
		l.frontier.Store(oldest)
	}
	drop := min(oldest>>segShift-l.first, uint64(len(l.segs)))
	for _, s := range l.segs[:drop] {
		if s != nil {
			s.set = [segSize / 64]uint64{}
			l.spare = s
		}
	}
	n := copy(l.segs, l.segs[drop:])
	clear(l.segs[n:])
	l.segs = l.segs[:n]
	l.first = oldest >> segShift
}

// resume positions the log after WAL recovery: base is the sequence base
// of the recovered generation chain (events below it were superseded by
// the checkpoint the chain starts at and are not replayable) and head the
// next sequence number the router will assign. Sequence numbers lost with
// a torn log tail are holes that will never fill, so the frontier jumps to
// the head and readers skip the unset slots.
func (l *eventLog) resume(base, head uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = base
	l.head = max(l.head, head)
	l.evictLocked()
	l.frontier.Store(l.head)
}

// read appends to dst the events of [since, frontier), at most limit of
// them (zero or negative: all), and returns the cursor to resume from.
// matchesOnly copies out only the match events of that same page, so the
// cursor and the lock hold are the page's whatever the match density.
// fromOldest reads from whatever the window's low end is at the time the
// lock is taken, so it cannot fail; otherwise a cursor below the window
// gets ErrEvicted. The lock is held for one page copy.
func (l *eventLog) read(since uint64, fromOldest, matchesOnly bool, limit int, dst []Event) ([]Event, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest, end := l.oldest.Load(), l.frontier.Load()
	if fromOldest {
		since = oldest
	}
	if since < oldest {
		return dst, since, ErrEvicted
	}
	if since >= end {
		return dst, since, nil
	}
	n := end - since
	if limit > 0 && uint64(limit) < n {
		n = uint64(limit)
	}
	if !matchesOnly {
		dst = slices.Grow(dst, int(n))
	}
	for c := since; c < end; {
		s := l.seg(c)
		for stop := min(end, (c|segMask)+1); c < stop; c++ {
			if !s.has(c & segMask) {
				continue
			}
			if r := &s.ev[c&segMask]; !matchesOnly || r.kind == sim.EventMatch {
				dst = append(dst, r.unpack(c))
			}
			if n--; n == 0 {
				return dst, c + 1, nil
			}
		}
	}
	return dst, end, nil
}

// EventLogStats is a point-in-time snapshot of the event log. Oldest and
// Frontier are read together under the log's lock: the readable window is
// [Oldest, Frontier) and Frontier >= Oldest always holds.
type EventLogStats struct {
	Subscribers int    // live subscriptions
	Capacity    uint64 // retained window in events (0: unbounded)
	Oldest      uint64 // lowest readable cursor
	Frontier    uint64 // one past the highest readable event
	Published   uint64 // events appended since construction
	Wakeups     uint64 // notifications delivered to blocked subscribers
}

// EventLogStats snapshots the event log.
func (r *Router) EventLogStats() EventLogStats {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	return EventLogStats{
		Subscribers: len(l.subs),
		Capacity:    l.capacity,
		Oldest:      l.oldest.Load(),
		Frontier:    l.frontier.Load(),
		Published:   l.published,
		Wakeups:     l.wakeups,
	}
}

// EventSub is one subscriber's position in the merged event stream: a
// cursor into the event log plus a wakeup channel. Next and Wait must be
// called from a single consumer goroutine (the cursor is unsynchronized,
// like any Events cursor); Close may be called from anywhere and is
// idempotent. A subscription left open pins a map entry and is visited
// on every emission — always Close it.
type EventSub struct {
	l      *eventLog
	cursor uint64
	notify chan struct{}
	// timer bounds a timed Wait: made by the first one and Reset by each
	// after, so waiting allocates nothing.
	timer  *time.Timer
	armed  atomic.Bool
	closed atomic.Bool
}

// Subscribe opens a subscription positioned at since, with identical
// cursor semantics to Events: events with Seq ≥ since are delivered in
// Seq order, gap-free; a cursor below the retention window gets
// ErrEvicted from Next. Use Cursor() as since for "only new events". A
// cursor above Cursor() names events that do not exist yet and waits for
// them — a caller holding a cursor from another process lifetime must
// clamp it first.
func (r *Router) Subscribe(since uint64) *EventSub {
	sub := &EventSub{l: r.log, cursor: since, notify: make(chan struct{}, 1)}
	r.log.mu.Lock()
	r.log.subs[sub] = struct{}{}
	r.log.mu.Unlock()
	return sub
}

// Close tears the subscription down. Further Next calls return no
// events; a concurrent Wait wakes up.
func (s *EventSub) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.l.mu.Lock()
	delete(s.l.subs, s)
	s.l.mu.Unlock()
	s.armed.Store(false)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Cursor reports the subscription's current resume position (the next
// Seq it will deliver).
func (s *EventSub) Cursor() uint64 { return s.cursor }

// Seek repositions the cursor — the restart half of the ErrEvicted
// contract (Seek(OldestCursor()) after Next reports eviction), mirroring
// how a polling consumer restarts its since value.
func (s *EventSub) Seek(cursor uint64) { s.cursor = cursor }

// Next appends to dst up to limit events from the cursor onward (zero
// or negative limit means unlimited) and advances the cursor past them:
// one page copy under the log mutex — no shard locks, no sort. A cursor
// below the retention window gets ErrEvicted and does not move. An empty
// result with a nil error means the subscriber is at the head — Wait for
// more.
func (s *EventSub) Next(limit int, dst []Event) ([]Event, uint64, error) {
	if s.closed.Load() {
		return dst, s.cursor, nil
	}
	dst, next, err := s.l.read(s.cursor, false, false, limit, dst)
	s.cursor = next
	return dst, next, err
}

// Wait blocks until an event at or after the cursor is (or may be)
// available, the timeout elapses (zero or negative waits indefinitely),
// stop closes (nil is allowed), or the subscription closes. It returns
// true when events may be available — callers just call Next, which
// reports the truth; a false return means the wait was cut short.
// Spurious true returns are possible and harmless.
func (s *EventSub) Wait(timeout time.Duration, stop <-chan struct{}) bool {
	if s.available() {
		return true
	}
	s.armed.Store(true)
	// Re-check after arming: an append between the first check and the
	// Store saw armed==false and sent no wakeup — catch it here.
	if s.available() || s.closed.Load() {
		s.armed.Store(false)
		select {
		case <-s.notify:
		default:
		}
		return true
	}
	var timeoutC <-chan time.Time
	if timeout > 0 {
		// Since Go 1.23 (this module's go line) Stop and Reset discard a
		// fire the timer already sent, so one left over from an earlier
		// Wait cannot cut this one short.
		if s.timer == nil {
			s.timer = time.NewTimer(timeout)
		} else {
			s.timer.Reset(timeout)
		}
		timeoutC = s.timer.C
		defer s.timer.Stop()
	}
	select {
	case <-s.notify:
		return true
	case <-timeoutC:
		s.armed.Store(false)
		return false
	case <-stop:
		s.armed.Store(false)
		return false
	}
}

// available reports whether Next would make progress: the frontier has
// passed the cursor, or the cursor has fallen below the window (Next has
// an eviction error for it). Keyed to the frontier rather than the raw
// sequence counter so a transient hole does not spin the waiter.
func (s *EventSub) available() bool {
	return s.l.frontier.Load() > s.cursor || s.cursor < s.l.oldest.Load()
}
