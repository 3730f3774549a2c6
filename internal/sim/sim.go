// Package sim owns the platform side of FTOA matching: the ground truth
// the paper's platform would own — worker positions over time (including
// movement of dispatched workers at the shared velocity), availability,
// and the committed matching. Algorithms interact with it through the
// Platform interface and never mutate ground truth directly, so an
// algorithm bug cannot produce an invalid matching.
//
// The core abstraction is the open-world Session (see session.go): workers
// and tasks are *admitted* at arrival time via AddWorker/AddTask, which
// return stable dense handles, and Advance drives timers. The session's
// output is a typed lifecycle event stream (SessionEvent): commits AND
// deadline expiries of unmatched objects, the paper's two-sided attrition
// made observable (DrainEvents / OnEvent). Live deployments
// (cmd/ftoa-serve) push real traffic straight into a Session — or into a
// grid of them via package shard; the closed-world Engine in this file is
// a thin replay driver that feeds a recorded instance's arrival events
// through the very same Session API, so experiments and benchmarks
// exercise the production code path.
//
// Two validation modes are supported:
//
//   - Strict: a match is committed only if the worker, departing its
//     current simulated position at commit time, can reach the task before
//     the task's deadline (and the task was released before the worker's
//     own deadline). This is the honest platform semantics.
//   - AssumeGuide: a match between two available objects always commits.
//     This mirrors the paper's analysis assumption that guide-based pairs
//     are feasible in reality, and reproduces the paper's example counts.
package sim

import (
	"time"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// Mode selects the match-validation semantics.
type Mode uint8

const (
	// Strict validates travel feasibility from the worker's current
	// position at commit time.
	Strict Mode = iota
	// AssumeGuide commits any match between two available objects.
	AssumeGuide
)

func (m Mode) String() string {
	if m == Strict {
		return "strict"
	}
	return "assume-guide"
}

// Platform is the session-side API visible to algorithms. Workers and
// tasks are identified by the dense handles the session assigned at
// admission (0, 1, 2, … per side, in arrival order); the platform is
// open-world, so NumWorkers/NumTasks only ever grow and algorithms must
// not assume they have seen the full population.
type Platform interface {
	// Worker returns the admitted worker behind a handle. The pointed-to
	// value is immutable; the pointer stays valid for the session.
	Worker(w int) *model.Worker

	// Task returns the admitted task behind a handle.
	Task(t int) *model.Task

	// NumWorkers returns how many workers have been admitted so far.
	// Handles 0..NumWorkers()-1 are valid.
	NumWorkers() int

	// NumTasks returns how many tasks have been admitted so far.
	NumTasks() int

	// Velocity is the shared worker speed (distance per time unit).
	Velocity() float64

	// Bounds is the service area spatial algorithms should size for.
	Bounds() geo.Rect

	// Hints returns optional closed-world sizing information; all fields
	// may be zero in a live deployment. See Hints.
	Hints() Hints

	// WorkerPos returns worker w's simulated position at time now,
	// accounting for any movement ordered via Dispatch.
	WorkerPos(w int, now float64) geo.Point

	// WorkerAvailable reports whether worker w is unmatched and can still
	// be assigned some task released at time now (now < deadline).
	WorkerAvailable(w int, now float64) bool

	// TaskAvailable reports whether task t is unmatched and could still be
	// reached by some worker departing at time now (now ≤ deadline).
	TaskAvailable(t int, now float64) bool

	// TryMatch attempts to commit the pair (w, t) at time now and reports
	// whether the platform accepted it. Acceptance depends on the session's
	// Mode; on success the pair is recorded irrevocably (Definition 4's
	// invariable constraint) and both objects become unavailable.
	TryMatch(w, t int, now float64) bool

	// Dispatch orders worker w to start moving from its current position
	// toward target at the shared velocity. A later Dispatch overrides an
	// earlier one. Dispatching a matched worker is a no-op.
	Dispatch(w int, target geo.Point, now float64)

	// Schedule asks the session to invoke the algorithm's OnTimer at time
	// at. Exactly one timer is pending at a time: a new call overrides any
	// earlier pending one, so algorithms needing several outstanding
	// deadlines must multiplex them onto the single slot. Times in the
	// past are clamped to the session clock and fire before the next
	// admission — OnTimer never observes time running backwards.
	Schedule(at float64)
}

// Algorithm is an online assignment algorithm driven by a session.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Init is called once when the session starts (and again if a session
	// is Reset). The platform is empty at this point; sizing information,
	// if any, is in p.Hints().
	Init(p Platform)
	// OnWorkerArrival handles a newly admitted worker handle.
	OnWorkerArrival(w int, now float64)
	// OnTaskArrival handles a newly admitted task handle.
	OnTaskArrival(t int, now float64)
	// OnFinish is called once when the session finishes, so batch
	// algorithms can flush pending work.
	OnFinish(now float64)
}

// TimerAlgorithm is implemented by algorithms that use Platform.Schedule.
type TimerAlgorithm interface {
	Algorithm
	// OnTimer fires at a time previously passed to Schedule.
	OnTimer(now float64)
}

// Result summarises one replay.
type Result struct {
	Algorithm string
	Mode      Mode
	Matching  model.Matching
	// Elapsed is the wall-clock time spent inside the replay loop (guide
	// construction and instance generation are excluded, matching the
	// paper's decision to omit offline preprocessing from reported times).
	Elapsed time.Duration
	// Attempted and Rejected count TryMatch calls and how many the engine
	// refused (always 0 in AssumeGuide mode for available pairs); the gap
	// quantifies the discretisation/prediction error the paper's Strict
	// assumption hides.
	Attempted int
	Rejected  int
	// ExpiredWorkers and ExpiredTasks count the objects that left the
	// system unserved — the two-sided attrition the paper's online model
	// implies but a match list cannot show. They are taken from the
	// session's lifecycle event stream (EventWorkerExpired /
	// EventTaskExpired); matched + expired can exceed the population in
	// AssumeGuide mode, where an expired object may still be matched
	// later under the paper's counting assumption.
	ExpiredWorkers int
	ExpiredTasks   int
	// Stats aggregates service-quality measures over committed matches.
	Stats MatchStats
}

// MatchStats aggregates platform-level service quality over the committed
// matches of one session. All quantities are measured at commit time from
// the simulated ground truth, so they are meaningful in both validation
// modes (in AssumeGuide they describe what the paper's counting implies
// physically).
type MatchStats struct {
	// TotalPickupDistance sums the remaining distance from each matched
	// worker's position at commit time to its task's location.
	TotalPickupDistance float64
	// TotalGuidedDistance sums the distance workers travelled under
	// dispatch guidance before being matched (or until the horizon for
	// unmatched dispatched workers it is not accumulated).
	TotalGuidedDistance float64
	// TotalTaskWait sums, over matched tasks, the time between the task's
	// release and the commit.
	TotalTaskWait float64
	// TotalWorkerIdle sums, over matched workers, the time between the
	// worker's arrival and the commit.
	TotalWorkerIdle float64
}

// MeanPickupDistance returns TotalPickupDistance averaged over matches.
func (s MatchStats) MeanPickupDistance(matches int) float64 {
	if matches == 0 {
		return 0
	}
	return s.TotalPickupDistance / float64(matches)
}

// MeanTaskWait returns TotalTaskWait averaged over matches.
func (s MatchStats) MeanTaskWait(matches int) float64 {
	if matches == 0 {
		return 0
	}
	return s.TotalTaskWait / float64(matches)
}

// Engine replays recorded instances through the open-world Session API: it
// is the bridge from the closed-world experiment harness (a materialised
// *model.Instance) to the streaming Matcher surface live deployments use.
// Create one per (instance, mode) and call Run once per algorithm; Run
// resets the underlying session. An Engine is not safe for concurrent use
// — use Clone to replay the same instance on several goroutines at once.
type Engine struct {
	in   *model.Instance
	mode Mode

	events []model.Event

	sess *Session
	// h2w/h2t translate session handles back to instance indexes (they
	// differ when a side's arrivals are not sorted by time). identity
	// records whether translation is a no-op so the common sorted case
	// skips the copy.
	h2w, h2t []int
	identity bool
}

// NewEngine prepares an engine for the instance. The event order is
// computed once and shared across runs (and across Clones).
func NewEngine(in *model.Instance, mode Mode) *Engine {
	return &Engine{
		in:     in,
		mode:   mode,
		events: in.Events(),
	}
}

// Clone returns a new engine over the same instance and mode that shares
// the immutable inputs (instance and precomputed event order) but owns its
// own session, so clones can Run concurrently on separate goroutines.
func (e *Engine) Clone() *Engine {
	return &Engine{
		in:     e.in,
		mode:   e.mode,
		events: e.events,
	}
}

// Instance returns the problem instance being replayed.
func (e *Engine) Instance() *model.Instance { return e.in }

// Mode returns the validation mode.
func (e *Engine) Mode() Mode { return e.mode }

// matcherConfig derives the session configuration for the replay: the
// recorded instance supplies exact sizing hints, which is how replays keep
// closed-world algorithms (TGOA's phase split, index pre-sizing) behaving
// exactly as they did against the pre-materialised instance.
func (e *Engine) matcherConfig() MatcherConfig {
	return MatcherConfig{
		Mode:     e.mode,
		Velocity: e.in.Velocity,
		Bounds:   e.in.Bounds,
		Hints: Hints{
			ExpectedWorkers: len(e.in.Workers),
			ExpectedTasks:   len(e.in.Tasks),
			Horizon:         e.in.Horizon,
		},
	}
}

// Run replays the instance's recorded arrival stream through a Session
// driven by alg and returns the result, with matching pairs translated
// back to instance indexes.
func (e *Engine) Run(alg Algorithm) Result {
	if e.sess == nil {
		// Built directly (not via NewMatcher) so degenerate instances the
		// old engine tolerated — zero velocity, empty bounds — still replay.
		e.sess = newSession(e.matcherConfig(), alg)
	} else {
		e.sess.Reset(alg)
	}
	s := e.sess
	e.h2w = e.h2w[:0]
	e.h2t = e.h2t[:0]
	e.identity = true

	start := time.Now()

	for _, ev := range e.events {
		switch ev.Kind {
		case model.WorkerArrival:
			if _, err := s.AddWorker(e.in.Workers[ev.Index]); err != nil {
				panic("sim: replay admission failed: " + err.Error())
			}
			if ev.Index != len(e.h2w) {
				e.identity = false
			}
			e.h2w = append(e.h2w, ev.Index)
		case model.TaskArrival:
			if _, err := s.AddTask(e.in.Tasks[ev.Index]); err != nil {
				panic("sim: replay admission failed: " + err.Error())
			}
			if ev.Index != len(e.h2t) {
				e.identity = false
			}
			e.h2t = append(e.h2t, ev.Index)
		}
	}
	s.Finish()

	elapsed := time.Since(start)

	matching := s.Matching()
	if !e.identity {
		translated := model.Matching{Pairs: make([]model.Pair, len(matching.Pairs))}
		for i, p := range matching.Pairs {
			translated.Pairs[i] = model.Pair{Worker: e.h2w[p.Worker], Task: e.h2t[p.Task]}
		}
		matching = translated
	}

	return Result{
		Algorithm:      alg.Name(),
		Mode:           e.mode,
		Matching:       matching,
		Elapsed:        elapsed,
		Attempted:      s.Attempted(),
		Rejected:       s.Rejected(),
		ExpiredWorkers: s.ExpiredWorkers(),
		ExpiredTasks:   s.ExpiredTasks(),
		Stats:          s.Stats(),
	}
}
