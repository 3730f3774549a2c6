package sim

import (
	"slices"

	"ftoa/internal/model"
)

// Retirement — the generational compaction that makes truly long-lived
// sessions possible. The session arenas are append-only between epochs
// (handles are dense indexes, the property every algorithm's flat-slice
// state relies on), so a serving process's memory would otherwise grow
// with lifetime admissions rather than live objects. Session.Retire ends
// the current epoch: it drops every object that is provably dead — it can
// never participate in a future match and the platform will never need
// its ground truth again — left-compacts the survivors (preserving
// relative handle order), and pushes the old→new handle mapping through
// every structure that speaks handles: the algorithm's per-object state
// (via the RetirableAlgorithm hook), the platform deadline queues, the
// motion table of dispatched workers, the undrained tail of the lifecycle
// event arena, and the committed matching.
//
// "Provably dead" is mode-aware, mirroring the availability boundaries:
//
//   - a matched object is dead the instant its pair commits (TryMatch
//     refuses rematches in both modes), and a withdrawn object (see
//     withdraw.go) is dead the instant it is retracted;
//   - in Strict mode an unmatched worker is dead once the clock reaches
//     its deadline (WorkerAvailable requires now < deadline) and an
//     unmatched task once the clock strictly passes its deadline
//     (TaskAvailable allows now <= deadline);
//   - in AssumeGuide mode deadlines are not enforced, so an unmatched
//     object is never dead and is always kept — the paper's counting
//     assumption means only matched objects retire.
//
// Because only dead objects are dropped, retirement is behaviour-neutral:
// a retired run commits the same pairs and emits the same expiries as an
// unretired one (asserted oracle-style across all six algorithms in
// internal/core's retire parity tests). The one observable difference is
// the handle namespace itself: handles are only stable within an epoch,
// and Epoch() counts the boundaries.

// RetirableAlgorithm is implemented by algorithms whose per-object state
// can survive an arena compaction. Session.Retire refuses to drop
// anything when the bound algorithm does not implement it, so plain
// Algorithm implementations keep the append-only handle guarantee they
// were written against.
type RetirableAlgorithm interface {
	Algorithm
	// Remap is invoked from Session.Retire after the platform arenas have
	// compacted: workers[old] (resp. tasks[old]) is the new handle of the
	// object previously known as old, or RetiredHandle if it was dropped.
	// The algorithm must rewrite every handle it has stored. The slices
	// are owned by the session and valid only during the call. Remap must
	// not call back into the platform's mutating surface (TryMatch,
	// Dispatch, Schedule); read-only accessors are safe and already speak
	// the new handle space.
	Remap(workers, tasks []int32)
}

// RetiredHandle marks a dropped object in a Remap table.
const RetiredHandle int32 = -1

// Reserver is implemented by algorithms that keep per-handle state and can
// size it ahead of a known number of admissions. Session.Reserve forwards
// its counts; sizing never changes what the algorithm matches.
type Reserver interface {
	// Reserve prepares for handles below workers (resp. tasks) on each
	// side.
	Reserve(workers, tasks int)
}

// Reserve sizes the arenas, the deadline queues and the matching for a
// session that will hold up to workers and tasks objects at once, each in
// one exact-size allocation, and forwards the counts to an algorithm that
// implements Reserver. WAL recovery calls it with the admission counts it
// read off the log, so replay fills arrays of the final size instead of
// growing — and discarding — them by doubling. The counts are capacity,
// not a limit: admissions beyond them grow the arenas as usual.
func (s *Session) Reserve(workers, tasks int) {
	s.workers = growTo(s.workers, workers)
	s.wstate = growTo(s.wstate, workers)
	s.wExpiry.fifo = growTo(s.wExpiry.fifo, workers)
	s.tasks = growTo(s.tasks, tasks)
	s.tMatch = growTo(s.tMatch, tasks)
	s.tMatchAt = growTo(s.tMatchAt, tasks)
	s.tWithdrawn = growTo(s.tWithdrawn, tasks)
	s.tExpiry.fifo = growTo(s.tExpiry.fifo, tasks)
	pairs := min(workers, tasks)
	s.matching.Pairs = growTo(s.matching.Pairs, pairs)
	if r, ok := s.alg.(Reserver); ok {
		r.Reserve(workers, tasks)
	}
}

// growTo returns s with room for n entries in all.
func growTo[T any](s []T, n int) []T { return slices.Grow(s, max(0, n-len(s))) }

// Refit rule of a retirement: an array whose capacity is more than
// refitSlack times what the ending epoch used is carrying a burst (or a
// recovered history) that is over, and is reallocated at refitHeadroom
// times that use. The gap between the two factors is the hysteresis that
// keeps steady state allocation-free: append growth leaves capacity at most
// 2x the largest epoch so far, so epochs would have to shrink more than
// refitSlack/2-fold before anything is reallocated, and the refitted array
// then absorbs refitHeadroom-fold growth without reallocating again.
// Arrays at or under refitFloor entries are left alone: freeing them buys
// nothing and a quiet epoch would only make the next one grow them back.
const (
	refitSlack    = 4
	refitHeadroom = 2
	refitFloor    = 4096
)

// Refit returns s unchanged, or — when its capacity exceeds both
// refitFloor and refitSlack x used, used being how many entries the
// ending epoch filled (never taken below len(s)) — a copy with capacity
// refitHeadroom x used. Exported for the structures that follow a
// session's handles across epochs (spatial indexes, the shard router's
// halo tables) so every one of them releases burst capacity by the same
// rule.
func Refit[T any](s []T, used int) []T {
	used = max(used, len(s))
	if cap(s) <= refitFloor || cap(s) <= refitSlack*used {
		return s
	}
	out := make([]T, len(s), max(refitHeadroom*used, refitFloor))
	copy(out, s)
	return out
}

// Retire ends the current arena epoch: every object that is provably dead
// at or before horizon (see the package comment above — matched, or past
// its deadline in Strict mode) is dropped, surviving handles are
// left-compacted preserving their relative order, and the old→new mapping
// is propagated to the algorithm (RetirableAlgorithm.Remap), the deadline
// queues, the motion table, the undrained event tail and the committed
// matching. horizon is clamped to the session clock; passing Now() retires
// everything retirable, while an earlier horizon keeps a grace window of
// recently dead objects whose handles external views may still be
// resolving.
//
// Retire returns how many workers and tasks were dropped. It is a no-op
// (0, 0) when the bound algorithm does not implement RetirableAlgorithm.
//
// After a retirement that dropped anything: handles from before the call
// are invalid (Epoch increments); events not yet consumed by
// DrainEvents are rewritten in place — surviving handles are
// translated, dropped ones become -1 on their side — so drain before
// retiring to observe exact handles (the shard router does); Matching()
// views obtained earlier must not be retained, exactly as across Reset;
// and Matches() keeps counting commits across epochs.
//
// Retire never allocates at steady state: the remap tables and every
// compaction are in place, reusing arena capacity. The one exception is
// deliberate and self-limiting: an array left with more than 4x the
// capacity the ending epoch used (a burst that passed, a recovered history
// that has since died) is reallocated at 2x that use, so a session's
// footprint follows its live population down as well as up (see Refit).
func (s *Session) Retire(horizon float64) (workers, tasks int) {
	if s.retAlg == nil {
		return 0, 0
	}
	if horizon > s.now {
		horizon = s.now
	}

	usedW, usedT, usedM := len(s.workers), len(s.tasks), len(s.motion)
	wmap := growMap(&s.wRemap, usedW)
	keep := 0
	for h := range s.workers {
		if s.workerDead(h, horizon) {
			wmap[h] = RetiredHandle
			continue
		}
		wmap[h] = int32(keep)
		if keep != h {
			s.workers[keep] = s.workers[h]
			s.wstate[keep] = s.wstate[h]
		}
		keep++
	}
	workers = len(s.workers) - keep
	s.workers = s.workers[:keep]
	s.wstate = s.wstate[:keep]

	tmap := growMap(&s.tRemap, usedT)
	keep = 0
	for h := range s.tasks {
		if s.taskDead(h, horizon) {
			tmap[h] = RetiredHandle
			continue
		}
		tmap[h] = int32(keep)
		if keep != h {
			s.tasks[keep] = s.tasks[h]
			s.tMatch[keep] = s.tMatch[h]
			s.tMatchAt[keep] = s.tMatchAt[h]
			s.tWithdrawn[keep] = s.tWithdrawn[h]
		}
		keep++
	}
	tasks = len(s.tasks) - keep
	s.tasks = s.tasks[:keep]
	s.tMatch = s.tMatch[:keep]
	s.tMatchAt = s.tMatchAt[:keep]
	s.tWithdrawn = s.tWithdrawn[:keep]

	if workers == 0 && tasks == 0 {
		return 0, 0
	}

	// Motion table: compact in table order. Each entry names its worker,
	// so the survivor's workerState (already at its new handle) is pointed
	// at the entry's new slot directly.
	keep = 0
	for _, m := range s.motion {
		nw := wmap[m.worker]
		if nw < 0 {
			continue
		}
		m.worker = nw
		s.motion[keep] = m
		s.wstate[nw].motion = int32(keep)
		keep++
	}
	s.motion = s.motion[:keep]

	// Deadline queues: drop the entries of retired objects (their expiry
	// would have been suppressed — a retired object is matched or already
	// past its fired deadline) and rewrite the survivors' handles.
	s.wExpiry.remap(wmap)
	s.tExpiry.remap(tmap)

	// Matching: pairs commit with both sides stamped at the same instant,
	// so a pair's endpoints retire together; compact in place (the
	// Matching() contract already forbids retaining views across epoch
	// boundaries) and keep counting them in Matches().
	kept := s.matching.Pairs[:0]
	for _, p := range s.matching.Pairs {
		if nw := wmap[p.Worker]; nw >= 0 {
			kept = append(kept, model.Pair{Worker: int(nw), Task: int(tmap[p.Task])})
		}
	}
	s.matching.Pairs = kept

	// Event arena: reclaim the drained prefix, then rebase the undrained
	// tail into the new handle space (dropped objects become -1, the
	// "side not involved" sentinel events already use).
	s.CompactEvents()
	for i := range s.events {
		if h := s.events[i].Worker; h >= 0 {
			s.events[i].Worker = int(wmap[h])
		}
		if h := s.events[i].Task; h >= 0 {
			s.events[i].Task = int(tmap[h])
		}
	}

	s.retiredW += workers
	s.retiredT += tasks
	s.epoch++
	s.retAlg.Remap(wmap, tmap)
	if s.onRetire != nil {
		s.onRetire(wmap, tmap)
	}

	// Give back capacity the ending epoch came nowhere near using.
	s.workers = Refit(s.workers, usedW)
	s.wstate = Refit(s.wstate, usedW)
	s.motion = Refit(s.motion, usedM)
	s.wExpiry.fifo = Refit(s.wExpiry.fifo, usedW)
	s.wExpiry.heap = Refit(s.wExpiry.heap, usedW)
	s.wRemap = Refit(s.wRemap[:0], usedW)
	s.tasks = Refit(s.tasks, usedT)
	s.tMatch = Refit(s.tMatch, usedT)
	s.tMatchAt = Refit(s.tMatchAt, usedT)
	s.tWithdrawn = Refit(s.tWithdrawn, usedT)
	s.tExpiry.fifo = Refit(s.tExpiry.fifo, usedT)
	s.tExpiry.heap = Refit(s.tExpiry.heap, usedT)
	s.tRemap = Refit(s.tRemap[:0], usedT)
	s.matching.Pairs = Refit(s.matching.Pairs, min(usedW, usedT))
	return workers, tasks
}

// workerDead reports whether worker h can never again affect the
// matching: matched (dead at commit), or — Strict mode only — past its
// availability deadline (now < deadline required to be assignable). Both
// death instants must fall at or before horizon.
func (s *Session) workerDead(h int, horizon float64) bool {
	ws := &s.wstate[h]
	if ws.withdrawn {
		// Withdrawn in either mode: TryMatch refuses it forever and its
		// expiry is suppressed, so no grace window is needed — the arbiter
		// that withdrew it has already dropped its own references.
		return true
	}
	if ws.matched {
		return ws.matchedAt <= horizon
	}
	return s.mode == Strict && s.workers[h].Deadline() <= horizon
}

// taskDead mirrors workerDead on the task side, with the task boundary:
// a task is assignable AT its deadline (now <= deadline), so an unmatched
// one is only dead once the horizon strictly passes it.
func (s *Session) taskDead(h int, horizon float64) bool {
	if s.tWithdrawn[h] {
		return true
	}
	if s.tMatch[h] {
		return s.tMatchAt[h] <= horizon
	}
	return s.mode == Strict && s.tasks[h].Deadline() < horizon
}

// growMap resizes a reusable remap table to n entries without clearing.
func growMap(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Epoch returns how many retirements have compacted this session's
// arenas. Handles (and the NumWorkers/NumTasks handle spaces) are stable
// within an epoch and invalidated across one.
func (s *Session) Epoch() uint64 { return s.epoch }

// RetiredWorkers returns how many workers have been dropped by Retire
// over the session's lifetime.
func (s *Session) RetiredWorkers() int { return s.retiredW }

// RetiredTasks is RetiredWorkers for the task side.
func (s *Session) RetiredTasks() int { return s.retiredT }

// AdmittedWorkers returns how many workers have ever been admitted —
// the live arena plus everything retired. Equal to NumWorkers until the
// first retirement.
func (s *Session) AdmittedWorkers() int { return len(s.workers) + s.retiredW }

// AdmittedTasks is AdmittedWorkers for the task side.
func (s *Session) AdmittedTasks() int { return len(s.tasks) + s.retiredT }

// Matches returns the total number of committed pairs over the session's
// lifetime. Unlike Matching(), whose pairs are compacted away once both
// endpoints retire, the count survives epoch boundaries.
func (s *Session) Matches() int { return s.matchCount }
