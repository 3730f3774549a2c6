package sim

import (
	"errors"
	"fmt"
	"math"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// Hints carries closed-world sizing information when the caller happens to
// have it — a replay driver knows the full population in advance, a live
// deployment at best estimates it. All fields are optional; zero means
// unknown. Hints never change what an algorithm matches, only how it sizes
// internal state, with one documented exception: TGOA's greedy/optimal
// phase split needs the total arrival count, so with zero hints it stays
// in its greedy phase forever. Behind a shard.Router the count TGOA reads
// is its shard's area share of the hints (shard.Config.Matcher).
type Hints struct {
	// ExpectedWorkers and ExpectedTasks estimate how many objects the
	// session will admit.
	ExpectedWorkers int
	ExpectedTasks   int
	// Horizon estimates the session end time (same clock as arrivals).
	Horizon float64
}

// MatcherConfig parameterises a Matcher. Velocity must be positive; Bounds
// must be a non-empty rectangle covering the locations that will arrive.
type MatcherConfig struct {
	// Mode selects the match-validation semantics (Strict or AssumeGuide).
	Mode Mode
	// Velocity is the shared worker speed (distance per time unit).
	Velocity float64
	// Bounds is the service area. Spatial algorithms size their indexes
	// from it; locations outside are clamped by grid lookups, not rejected.
	Bounds geo.Rect
	// Hints optionally sizes algorithm state; see Hints.
	Hints Hints
	// OnEvent, when non-nil, is invoked synchronously for every lifecycle
	// event — commits and expiries — from within the
	// AddWorker/AddTask/Advance/Finish call that produced it, possibly
	// mid-algorithm-callback. The handler must not call back into the
	// Session (no admissions, Advance, Finish or Reset): the algorithm's
	// state may be mid-update when it fires. Record the event and return;
	// events also remain available via Session.DrainEvents regardless.
	OnEvent func(SessionEvent)
	// OnRetire, when non-nil, is invoked synchronously from within
	// Session.Retire after a compaction that dropped at least one object,
	// with the same old→new handle tables the algorithm's Remap hook
	// received (RetiredHandle marks dropped objects). External views that
	// track session handles across epochs rebase themselves here. The
	// slices are owned by the session and valid only during the call, and
	// the handler must not call back into the Session.
	OnRetire func(workers, tasks []int32)
	// CommitGate, when non-nil, is consulted by TryMatch after every
	// platform validity check has passed, immediately before the pair
	// commits; returning false vetoes the commit (TryMatch reports false
	// and the attempt counts as rejected). The shard router uses it to
	// arbitrate cross-shard claims on halo-mirrored tasks — a vetoed
	// commit means another session's copy already matched or expired. The
	// gate runs mid-algorithm-callback and must not call back into the
	// Session.
	CommitGate func(w, t int, now float64) bool
}

// Matcher is a configured factory for open-world matching sessions. One
// Matcher can mint any number of independent sessions (e.g. one per tenant
// or per shard); the Matcher itself is immutable and safe for concurrent
// use. An individual Session is single-goroutine: callers serialising live
// traffic onto it must provide their own locking.
type Matcher struct {
	cfg MatcherConfig
}

// NewMatcher validates cfg and returns a session factory.
func NewMatcher(cfg MatcherConfig) (*Matcher, error) {
	if !(cfg.Velocity > 0) {
		return nil, fmt.Errorf("sim: non-positive velocity %v", cfg.Velocity)
	}
	if !(cfg.Bounds.Width() > 0) || !(cfg.Bounds.Height() > 0) {
		return nil, fmt.Errorf("sim: empty bounds %+v", cfg.Bounds)
	}
	if cfg.Mode != Strict && cfg.Mode != AssumeGuide {
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
	return &Matcher{cfg: cfg}, nil
}

// Config returns the matcher's configuration.
func (m *Matcher) Config() MatcherConfig { return m.cfg }

// NewSession starts an open-world session driven by alg. The algorithm's
// Init hook runs before NewSession returns.
func (m *Matcher) NewSession(alg Algorithm) *Session {
	return newSession(m.cfg, alg)
}

// newSession builds a session without re-validating cfg. The replay Engine
// uses it directly so that degenerate recorded instances (zero velocity,
// empty bounds) replay exactly as they always did instead of failing
// Matcher validation.
func newSession(cfg MatcherConfig, alg Algorithm) *Session {
	s := &Session{
		mode:     cfg.Mode,
		velocity: cfg.Velocity,
		bounds:   cfg.Bounds,
		hints:    cfg.Hints,
		onEvent:  cfg.OnEvent,
		onRetire: cfg.OnRetire,
		gate:     cfg.CommitGate,
	}
	s.wExpiry.workers = &s.workers
	s.tExpiry.tasks = &s.tasks
	s.Reset(alg)
	return s
}

// workerState is the platform-owned ground truth for one admitted worker
// beside its model.Worker: 16 bytes. A worker stands where it arrived,
// workers.At(h).Loc, until a Dispatch first moves it; only then does it
// get an entry in the session's motion table.
type workerState struct {
	matchedAt float64 // commit time, valid when matched
	motion    int32   // index into Session.motion, or -1: where it arrived
	matched   bool
	withdrawn bool // retracted via WithdrawWorker; see withdraw.go
}

// motionEntry is the motion state of one dispatched worker: it is at
// anchor at anchorTime and, while moving, heads for target at the
// session's velocity. worker is the owning handle, so Retire can compact
// the table and rewrite each survivor's workerState.motion in one pass.
type motionEntry struct {
	worker     int32
	moving     bool
	anchor     geo.Point
	target     geo.Point // valid while moving
	anchorTime float64
}

// ErrFinished is returned by AddWorker/AddTask after Finish.
var ErrFinished = errors.New("sim: session finished")

// Session is one live open-world matching session: workers and tasks are
// admitted at arrival time and handed to the algorithm immediately, with no
// pre-materialised instance. Handles returned by AddWorker/AddTask are
// stable dense indexes into paged arenas (0, 1, 2, …, in admission order
// per side; see Pages), so algorithm state and the platform's ground truth
// stay flat tables with zero steady-state allocations on the hot path. The
// arenas are append-only within an epoch; long-lived sessions bound their
// memory by calling Retire (see retire.go), which compacts away provably
// dead objects and remaps the surviving handles.
//
// Session time is driven by the caller: each admission carries its arrival
// time (clamped to be non-decreasing), and Advance moves the clock without
// admitting anything, firing due timers and platform expiries. A Session
// is not safe for concurrent use.
//
// The session's output surface is a typed lifecycle event stream (see
// SessionEvent): every committed pair and every deadline expiry of an
// unmatched object is appended to an internal event arena, observable
// incrementally via DrainEvents (or synchronously via the OnEvent hook).
// Expiries are detected by a platform-side deadline min-heap driven from
// the same clock as the algorithm's single Schedule timer, so "object
// left unserved" is observable without any algorithm cooperation — and
// without perturbing what the algorithm matches.
type Session struct {
	mode     Mode
	velocity float64
	bounds   geo.Rect
	hints    Hints
	onEvent  func(SessionEvent)
	onRetire func(workers, tasks []int32)
	gate     func(w, t int, now float64) bool

	alg      Algorithm
	timerAlg TimerAlgorithm // nil when alg has no OnTimer
	// retAlg is nil when alg has no Remap. Resolved once here: a type
	// assertion in Retire would, at random, build the runtime's per-site
	// assertion cache and so allocate on a path that must not.
	retAlg RetirableAlgorithm

	// Arenas; handles index into them. Append-only within an epoch;
	// Retire compacts them across epoch boundaries (see retire.go).
	workers    Pages[model.Worker]
	tasks      Pages[model.Task]
	wstate     Pages[workerState]
	motion     Pages[motionEntry] // dispatched workers only, see workerState
	tMatch     Pages[bool]
	tMatchAt   Pages[float64] // commit time per task, valid when tMatch
	tWithdrawn Pages[bool]    // retracted via WithdrawTask; see withdraw.go

	// Epoch bookkeeping (retire.go): wRemap/tRemap are the reusable
	// old→new handle tables, retired* the cumulative drop counts.
	wRemap   []int32
	tRemap   []int32
	retiredW int
	retiredT int
	epoch    uint64

	matching model.Matching
	// events is the lifecycle arena: commits and expiries in fire order.
	// drained is DrainEvents' consumption cursor;
	// CompactEvents reclaims the consumed prefix.
	events  []SessionEvent
	drained int

	// wExpiry/tExpiry are the platform-side deadline queues (see
	// event.go): one entry per admitted object, popped lazily as the
	// clock passes it.
	wExpiry  expiryQueue
	tExpiry  expiryQueue
	expiredW int
	expiredT int

	// Lifetime withdrawal counts (withdraw.go); survive Retire.
	withdrawnW int
	withdrawnT int

	now      float64
	timer    float64 // pending timer or +Inf
	finished bool

	attempted  int
	rejected   int
	matchCount int // lifetime commits; survives Retire's matching compaction
	stats      MatchStats
}

var _ Platform = (*Session)(nil)

// Reset rewinds the session to empty and rebinds it to alg (which may be
// the same algorithm), reusing all arena capacity. It exists so replay
// drivers and benchmarks can run many sessions with zero steady-state
// allocations; live deployments normally create a session once and never
// reset it.
func (s *Session) Reset(alg Algorithm) {
	s.workers.Truncate(0)
	s.tasks.Truncate(0)
	s.wstate.Truncate(0)
	s.motion.Truncate(0)
	s.tMatch.Truncate(0)
	s.tMatchAt.Truncate(0)
	s.tWithdrawn.Truncate(0)
	// The matching escapes to callers via Matching, so it is the one piece
	// of per-session state that cannot be reused.
	s.matching = model.Matching{}
	s.events = s.events[:0]
	s.drained = 0
	s.wExpiry.reset()
	s.tExpiry.reset()
	s.expiredW = 0
	s.expiredT = 0
	s.withdrawnW = 0
	s.withdrawnT = 0
	s.retiredW = 0
	s.retiredT = 0
	s.epoch = 0
	s.matchCount = 0
	// The clock starts unset (-Inf) so the first admission defines session
	// time — recorded streams replay with their timestamps intact, even
	// negative ones; clamping only ever applies to genuinely out-of-order
	// arrivals.
	s.now = math.Inf(-1)
	s.timer = math.Inf(1)
	s.finished = false
	s.attempted = 0
	s.rejected = 0
	s.stats = MatchStats{}
	s.alg = alg
	s.timerAlg, _ = alg.(TimerAlgorithm)
	s.retAlg, _ = alg.(RetirableAlgorithm)
	alg.Init(s)
}

// AddWorker admits a worker and returns its handle. The worker's Arrive
// time is clamped up to the session clock (an object cannot arrive in the
// past), due timers fire first, and the algorithm's OnWorkerArrival hook
// runs before AddWorker returns. Only ErrFinished is possible after a
// successful NewSession.
func (s *Session) AddWorker(w model.Worker) (int, error) {
	return s.addWorker(w, true)
}

func (s *Session) addWorker(w model.Worker, pushExpiry bool) (int, error) {
	if s.finished {
		return -1, ErrFinished
	}
	if w.Arrive < s.now {
		w.Arrive = s.now
	}
	s.advanceTo(w.Arrive)
	h := s.workers.Push(w)
	s.wstate.Push(workerState{motion: -1})
	if pushExpiry {
		s.wExpiry.push(int32(h))
	}
	s.alg.OnWorkerArrival(h, w.Arrive)
	return h, nil
}

// AddTask admits a task and returns its handle; see AddWorker for the
// clock and timer semantics (Release plays the role of Arrive).
func (s *Session) AddTask(t model.Task) (int, error) {
	return s.addTask(t, true)
}

func (s *Session) addTask(t model.Task, pushExpiry bool) (int, error) {
	if s.finished {
		return -1, ErrFinished
	}
	if t.Release < s.now {
		t.Release = s.now
	}
	s.advanceTo(t.Release)
	h := s.tasks.Push(t)
	s.tMatch.Push(false)
	s.tMatchAt.Push(0)
	s.tWithdrawn.Push(false)
	if pushExpiry {
		s.tExpiry.push(int32(h))
	}
	s.alg.OnTaskArrival(h, t.Release)
	return h, nil
}

// Advance moves the session clock to now (ignored if in the past), firing
// any due timer, and returns the resulting clock. Live drivers call it
// periodically so batch algorithms flush even when no arrivals come in.
func (s *Session) Advance(now float64) float64 {
	if !s.finished {
		s.advanceTo(now)
	}
	return s.now
}

// advanceTo fires, in chronological order, the pending algorithm timer
// and the platform-side deadline expiries that become due at or before t,
// then moves the clock to t. Timer callbacks observe a monotonic clock: a
// timer that was scheduled in the past (see Schedule) fires at the
// current session time. The two timer sources are independent — expiries
// never consume the algorithm's single Schedule slot and never call into
// the algorithm.
//
// Dueness is one-sided per side: a worker is unavailable AT its deadline
// (WorkerAvailable requires now < deadline), so its expiry is due once
// t >= deadline; a task is still matchable AT its deadline (TaskAvailable
// allows now <= deadline), so its expiry only becomes due once the clock
// strictly passes it — which also means every commit that could suppress
// the expiry has already been observed when it fires. On a tie between a
// task expiry and the algorithm timer the timer fires first for the same
// reason; match-time-aware suppression in fireExpiry keeps the emitted
// events exactly the brute-force-oracle set either way.
func (s *Session) advanceTo(t float64) {
	for {
		wh, wAt, wok := s.wExpiry.peek()
		th, tAt, tok := s.tExpiry.peek()
		wDue := wok && wAt <= t
		tDue := tok && tAt < t
		timerDue := s.timerAlg != nil && s.timer <= t
		switch {
		case wDue && (!tDue || wAt <= tAt) && (!timerDue || wAt <= s.timer):
			s.wExpiry.pop()
			s.fireWorkerExpiry(int(wh), wAt)
		case tDue && (!timerDue || tAt < s.timer):
			s.tExpiry.pop()
			s.fireTaskExpiry(int(th), tAt)
		case timerDue:
			at := s.timer
			s.timer = math.Inf(1)
			if at < s.now {
				at = s.now
			}
			s.now = at
			s.timerAlg.OnTimer(at)
		default:
			if t > s.now {
				s.now = t
			}
			return
		}
	}
}

// fireWorkerExpiry decides whether a popped worker deadline is a real
// expiry and emits the event. Suppression is match-time-aware, so the
// emitted set is independent of when the queue happened to pop the entry:
// a worker expires unless it was matched strictly before its deadline
// (mirroring WorkerAvailable's now < deadline boundary). Emission never
// touches algorithm state.
func (s *Session) fireWorkerExpiry(w int, at float64) {
	if at > s.now {
		s.now = at
	}
	ws := s.wstate.At(w)
	if ws.withdrawn {
		// Retracted copies have no lifecycle here: whichever session
		// committed or expired the original reports it.
		return
	}
	if ws.matched && ws.matchedAt < at {
		return
	}
	s.expiredW++
	s.emit(SessionEvent{Kind: EventWorkerExpired, Worker: w, Task: -1, Time: at})
}

// fireTaskExpiry is fireWorkerExpiry for the task side: a task expires
// unless it was matched at or before its deadline (TaskAvailable allows
// now <= deadline).
func (s *Session) fireTaskExpiry(t int, at float64) {
	if at > s.now {
		s.now = at
	}
	if *s.tWithdrawn.At(t) {
		return
	}
	if *s.tMatch.At(t) && *s.tMatchAt.At(t) <= at {
		return
	}
	s.expiredT++
	s.emit(SessionEvent{Kind: EventTaskExpired, Worker: -1, Task: t, Time: at})
}

// emit appends one lifecycle event to the arena and fires the synchronous
// OnEvent hook.
func (s *Session) emit(ev SessionEvent) {
	s.events = append(s.events, ev)
	if s.onEvent != nil {
		s.onEvent(ev)
	}
}

// Finish ends the session: the clock advances to the hinted horizon (if
// later than the last arrival), remaining timers fire, and the algorithm's
// OnFinish hook flushes pending work. Further admissions return
// ErrFinished; DrainEvents, Matching and the other accessors remain usable.
func (s *Session) Finish() {
	if s.finished {
		return
	}
	// An idle session (no arrivals, no horizon) finishes at time 0, the
	// clock origin a replay of an empty instance would use.
	end := 0.0
	if s.now > end {
		end = s.now
	}
	if s.hints.Horizon > end {
		end = s.hints.Horizon
	}
	s.advanceTo(end)
	s.finished = true
	s.alg.OnFinish(end)
	// The session is over: flush the task deadlines sitting exactly at
	// the end time — a task whose deadline IS the end had its last
	// chance in OnFinish just now, and advanceTo(end) above already
	// fired every worker deadline <= end and every task deadline < end.
	// Deadlines beyond the end are not expiries: those objects outlive
	// the session unserved-but-alive.
	for {
		th, tAt, tok := s.tExpiry.peek()
		if !tok || tAt > end {
			return
		}
		s.tExpiry.pop()
		s.fireTaskExpiry(int(th), tAt)
	}
}

// DrainEvents appends to dst every lifecycle event emitted since the
// previous DrainEvents and returns the extended slice. Event order is
// fire order, with non-decreasing times.
func (s *Session) DrainEvents(dst []SessionEvent) []SessionEvent {
	dst = append(dst, s.events[s.drained:]...)
	s.drained = len(s.events)
	return dst
}

// CompactEvents reclaims the arena prefix already consumed by
// DrainEvents, keeping the backing capacity. Long-lived sessions
// that drain incrementally call it periodically so the event arena stays
// proportional to the undrained tail instead of the session's lifetime.
func (s *Session) CompactEvents() {
	if s.drained == 0 {
		return
	}
	n := copy(s.events, s.events[s.drained:])
	s.events = s.events[:n]
	s.drained = 0
}

// ExpiredWorkers returns how many workers left the platform unserved
// (their deadline passed while unmatched).
func (s *Session) ExpiredWorkers() int { return s.expiredW }

// ExpiredTasks returns how many tasks expired unserved.
func (s *Session) ExpiredTasks() int { return s.expiredT }

// Now returns the session clock.
func (s *Session) Now() float64 { return s.now }

// Matching returns the committed matching so far, in the current epoch's
// handle space (pairs whose endpoints retired are compacted away; Matches
// keeps the lifetime count). The caller must not retain it across Reset
// or Retire.
func (s *Session) Matching() model.Matching { return s.matching }

// Stats returns the service-quality aggregates over committed matches.
func (s *Session) Stats() MatchStats { return s.stats }

// Attempted returns the number of TryMatch calls so far.
func (s *Session) Attempted() int { return s.attempted }

// Rejected returns how many TryMatch calls the platform refused.
func (s *Session) Rejected() int { return s.rejected }

// Mode returns the session's validation mode.
func (s *Session) Mode() Mode { return s.mode }

// Worker implements Platform. The returned pointer stays valid and
// immutable for the current arena epoch (for the whole session if Retire
// is never called): admissions add pages, they never move the arena.
func (s *Session) Worker(w int) *model.Worker { return s.workers.At(w) }

// Task implements Platform.
func (s *Session) Task(t int) *model.Task { return s.tasks.At(t) }

// NumWorkers implements Platform.
func (s *Session) NumWorkers() int { return s.workers.Len() }

// NumTasks implements Platform.
func (s *Session) NumTasks() int { return s.tasks.Len() }

// Velocity implements Platform.
func (s *Session) Velocity() float64 { return s.velocity }

// Bounds implements Platform.
func (s *Session) Bounds() geo.Rect { return s.bounds }

// Hints implements Platform.
func (s *Session) Hints() Hints { return s.hints }

// WorkerPos implements Platform.
func (s *Session) WorkerPos(w int, now float64) geo.Point {
	i := s.wstate.At(w).motion
	if i < 0 {
		return s.workers.At(w).Loc
	}
	m := s.motion.At(int(i))
	if !m.moving {
		return m.anchor
	}
	elapsed := now - m.anchorTime
	if elapsed <= 0 {
		return m.anchor
	}
	total := m.anchor.Dist(m.target)
	traveled := elapsed * s.velocity
	if traveled >= total {
		// Arrived: collapse the segment so future queries are O(1).
		m.anchor = m.target
		m.anchorTime = now
		m.moving = false
		return m.anchor
	}
	return m.anchor.Lerp(m.target, traveled/total)
}

// WorkerAvailable implements Platform. In AssumeGuide mode deadlines are
// not enforced — the paper's counting assumes guide pairs are feasible, so
// an unmatched worker stays assignable; in Strict mode a task released at
// `now` must satisfy Sr < Sw + Dw.
func (s *Session) WorkerAvailable(w int, now float64) bool {
	ws := s.wstate.At(w)
	if ws.matched || ws.withdrawn {
		return false
	}
	if s.mode == AssumeGuide {
		return true
	}
	return now < s.workers.At(w).Deadline()
}

// TaskAvailable implements Platform. See WorkerAvailable for the mode
// semantics; in Strict mode a worker departing at `now` needs non-negative
// travel budget.
func (s *Session) TaskAvailable(t int, now float64) bool {
	if *s.tMatch.At(t) || *s.tWithdrawn.At(t) {
		return false
	}
	if s.mode == AssumeGuide {
		return true
	}
	return now <= s.tasks.At(t).Deadline()
}

// TryMatch implements Platform.
func (s *Session) TryMatch(w, t int, now float64) bool {
	s.attempted++
	ws := s.wstate.At(w)
	worker, task := s.workers.At(w), s.tasks.At(t)
	if ws.matched || ws.withdrawn || *s.tMatch.At(t) || *s.tWithdrawn.At(t) {
		s.rejected++
		return false
	}
	if s.mode == Strict {
		if !model.FeasibleAt(worker, task, s.WorkerPos(w, now), now, s.velocity) {
			s.rejected++
			return false
		}
	}
	// The commit gate runs last, once the pair is otherwise committable:
	// a veto means an external arbiter (the shard router's cross-shard
	// claim protocol) knows one endpoint is spoken for elsewhere.
	if s.gate != nil && !s.gate(w, t, now) {
		s.rejected++
		return false
	}
	pos := s.WorkerPos(w, now)
	ws.matched = true
	ws.matchedAt = now
	*s.tMatch.At(t) = true
	*s.tMatchAt.At(t) = now
	s.matching.Add(w, t)
	s.matchCount++
	s.stats.TotalPickupDistance += pos.Dist(task.Loc)
	s.stats.TotalGuidedDistance += worker.Loc.Dist(pos)
	if wait := now - task.Release; wait > 0 {
		s.stats.TotalTaskWait += wait
	}
	if idle := now - worker.Arrive; idle > 0 {
		s.stats.TotalWorkerIdle += idle
	}
	s.emit(SessionEvent{Kind: EventMatch, Worker: w, Task: t, Time: now})
	return true
}

// Dispatch implements Platform. A worker's first move gives it an entry
// in the motion table; a dispatch that leaves an undispatched worker where
// it arrived changes nothing.
func (s *Session) Dispatch(w int, target geo.Point, now float64) {
	ws := s.wstate.At(w)
	if ws.matched {
		return
	}
	pos := s.WorkerPos(w, now)
	if ws.motion < 0 {
		if pos == target {
			return
		}
		ws.motion = int32(s.motion.Push(motionEntry{worker: int32(w)}))
	}
	m := s.motion.At(int(ws.motion))
	m.anchor = pos
	m.anchorTime = now
	if pos == target {
		m.moving = false
		return
	}
	m.target = target
	m.moving = true
}

// Schedule implements Platform. Only one pending timer is kept — a newer
// call overrides any earlier pending one — and a time in the past is
// clamped to the session clock, so it fires before the next admission but
// the OnTimer callback never observes time running backwards.
func (s *Session) Schedule(at float64) {
	if at < s.now {
		at = s.now
	}
	s.timer = at
}
