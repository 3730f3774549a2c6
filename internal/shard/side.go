// The one file that tells a worker from a task.
//
// The paper's two object kinds are structurally identical (Definitions 1–2:
// an id, a location, a start time, a window) and the router treats them
// alike: counters and WAL record types are indexed by a side, and an
// arrival travels as one admission value whichever kind it is. They differ
// in two places only: sim.Session has a method pair per kind, and the halo
// mirrors tasks alone (reach). Only the methods below choose between the
// kinds; a richer object shape is a field of admission and a line here,
// not a fork in every path.
package shard

import (
	"errors"
	"math"

	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
)

// side is an object kind. The values index the per-side tables and are the
// low bit of the WAL's admission record types and withdrawal flags.
type side uint8

const (
	workerSide side = iota
	taskSide
)

// sides is the iteration order wherever both kinds are visited: workers
// first, as migration enumerates and sorts them.
var sides = [...]side{workerSide, taskSide}

// mirrored reports whether objects of this side are ever halo-mirrored:
// tasks are (they alone have mirror records and ghosts), workers never.
func (sd side) mirrored() bool { return sd == taskSide }

// reach is how far from its location an arrival is mirrored under a halo
// of width halo: a worker nowhere, a task up to 2·halo (a border pair
// shorter than 2·halo has its task that close to the worker's region). A
// worker waiting in place farther than window·velocity cannot serve the
// task (Definition 4), so that caps the reach unless workers move, when
// they reach up to (Dw + window)·velocity (see Config.Halo).
func (ad *admission) reach(halo, velocity float64, moving bool) float64 {
	if !ad.side.mirrored() || !(halo > 0) {
		return 0
	}
	if moving {
		return 2 * halo
	}
	return min(2*halo, ad.window*velocity)
}

// ErrInvalidAdmission refuses an arrival no session could order: a NaN or
// infinite coordinate, or a NaN arrival time or window — more exactly, a
// deadline (their sum) that is not a number: it would compare false against
// every clock and break the expiry heap's ordering. A +Inf window is legal —
// the object never expires.
var ErrInvalidAdmission = errors.New("shard: admission with a non-finite location or a NaN arrival time or window")

// admission is one arrival on its way into a session: a model.Worker or
// model.Task reduced to the fields they share. A plain value (no closures)
// so the interior fast path stays allocation-free.
type admission struct {
	side side
	id   int
	loc  geo.Point
	// at is the arrival (Worker.Arrive, Task.Release) — the sort key of
	// batched ring admission and of migration — and window how long the
	// object stays (Worker.Patience, Task.Expiry).
	at, window float64
	// expiryFired marks a migration's re-admission of an object whose
	// deadline expiry the old topology already emitted (AssumeGuide keeps
	// such objects live), so the new session must not emit it again. It
	// replays through the WAL admission flags (walcodec.go).
	expiryFired bool
}

func workerAdmission(w model.Worker) admission {
	return admission{side: workerSide, id: w.ID, loc: w.Loc, at: w.Arrive, window: w.Patience}
}

func taskAdmission(t model.Task) admission {
	return admission{side: taskSide, id: t.ID, loc: t.Loc, at: t.Release, window: t.Expiry}
}

// valid reports whether a session can order the arrival; see
// ErrInvalidAdmission.
func (ad *admission) valid() bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return finite(ad.loc.X) && finite(ad.loc.Y) && !math.IsNaN(ad.at+ad.window)
}

// admit pushes the arrival into s and returns its handle plus the arrival
// time the session stamped (ad.at clamped up to the session clock).
// AddMigrated*(x, false) is AddWorker/AddTask by definition, so one call per
// side covers live arrivals and migrants alike.
func (sd side) admit(s *sim.Session, ad *admission) (int, float64, error) {
	if sd == taskSide {
		h, err := s.AddMigratedTask(model.Task{ID: ad.id, Loc: ad.loc, Release: ad.at, Expiry: ad.window}, ad.expiryFired)
		if err != nil {
			return -1, 0, err
		}
		return h, s.Task(h).Release, nil
	}
	h, err := s.AddMigratedWorker(model.Worker{ID: ad.id, Loc: ad.loc, Arrive: ad.at, Patience: ad.window}, ad.expiryFired)
	if err != nil {
		return -1, 0, err
	}
	return h, s.Worker(h).Arrive, nil
}

// count returns how many objects of this side s's arena holds. Handles are
// dense, so it is also the handle the next admission gets.
func (sd side) count(s *sim.Session) int {
	if sd == taskSide {
		return s.NumTasks()
	}
	return s.NumWorkers()
}

// withdraw retracts handle h from s, reporting whether the object was still
// live.
func (sd side) withdraw(s *sim.Session, h int) bool {
	if sd == taskSide {
		return s.WithdrawTask(h)
	}
	return s.WithdrawWorker(h)
}

// live reports whether the object behind handle h can still affect
// matching: not matched, withdrawn or (Strict) past its deadline.
func (sd side) live(s *sim.Session, h int) bool {
	if sd == taskSide {
		return s.TaskLive(h)
	}
	return s.WorkerLive(h)
}

// migrant returns the object behind handle h as the admission a migration
// re-admits, with the clamped stamps its session gave it; live is false when
// its lifecycle can no longer affect matching and it stays behind.
func (sd side) migrant(s *sim.Session, h int) (ad admission, live bool) {
	if !sd.live(s, h) {
		return ad, false
	}
	if sd == taskSide {
		ad = taskAdmission(*s.Task(h))
	} else {
		ad = workerAdmission(*s.Worker(h))
	}
	ad.expiryFired = sd.closedAt(ad.at+ad.window, s.Now())
	return ad, true
}

// closedAt reports whether an object with this deadline is past it at time
// t — the session's boundary rule: a worker's window is half-open (it has
// left AT its deadline), a task's closed (it can still be reached at it).
// It decides whether a deadline has fired by a clock and whether a commit
// came in time to suppress an expiry.
func (sd side) closedAt(deadline, t float64) bool {
	if sd == taskSide {
		return deadline < t
	}
	return deadline <= t
}

// admissionOp returns the WAL record type of an owner or ghost admission
// on this side; admissionKind is its inverse (walcodec.go: bit 0 the side,
// bit 1 ghost). Only tasks have ghosts, so a worker's ghost type, 0x12, is
// never written and replay refuses it.
func (sd side) admissionOp(ghost bool) byte {
	op := opWorker + byte(sd)
	if ghost {
		op |= 2
	}
	return op
}

func admissionKind(typ byte) (sd side, ghost bool) {
	return side(typ & 1), typ&2 != 0
}
