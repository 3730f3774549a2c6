package sim

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

func testMatcher(t *testing.T, mode Mode, hints Hints, onEvent func(SessionEvent)) *Matcher {
	t.Helper()
	m, err := NewMatcher(MatcherConfig{
		Mode:     mode,
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Hints:    hints,
		OnEvent:  onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatcherValidates(t *testing.T) {
	if _, err := NewMatcher(MatcherConfig{Velocity: 0, Bounds: geo.NewRect(0, 0, 1, 1)}); err == nil {
		t.Error("zero velocity accepted")
	}
	if _, err := NewMatcher(MatcherConfig{Velocity: 1}); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewMatcher(MatcherConfig{Velocity: 1, Bounds: geo.NewRect(0, 0, 1, 1), Mode: Mode(7)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestArrivalClockIsMonotonic: an admission carrying a time before the
// session clock is clamped up — objects cannot arrive in the past.
func TestArrivalClockIsMonotonic(t *testing.T) {
	var seen []float64
	alg := &scriptAlg{
		name:     "clock",
		onWorker: func(p Platform, w int, now float64) { seen = append(seen, now) },
		onTask:   func(p Platform, tk int, now float64) { seen = append(seen, now) },
	}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: 5, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	// Arrive=2 is in the session's past: admitted at now=5.
	h, err := s.AddWorker(model.Worker{Loc: geo.Pt(2, 2), Arrive: 2, Patience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Worker(h).Arrive; got != 5 {
		t.Errorf("late worker admitted at %v, want clamped to 5", got)
	}
	if _, err := s.AddTask(model.Task{Loc: geo.Pt(3, 3), Release: 4, Expiry: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Task(0).Release; got != 5 {
		t.Errorf("late task released at %v, want clamped to 5", got)
	}
	for _, now := range seen {
		if now != 5 {
			t.Errorf("arrival observed now=%v, want 5 (monotonic clock)", now)
		}
	}
	if s.Now() != 5 {
		t.Errorf("session clock %v, want 5", s.Now())
	}
}

// TestSchedulePastTimeFiresAtCurrentClock is the regression test for the
// single-pending-timer semantics: a timer scheduled in the past must fire
// before the next admission, at the *current* session time — OnTimer never
// observes time running backwards.
func TestSchedulePastTimeFiresAtCurrentClock(t *testing.T) {
	var fired []float64
	alg := &scriptAlg{name: "past-timer"}
	alg.onWorker = func(p Platform, w int, now float64) {
		if w == 0 {
			p.Schedule(1) // already in the past: the clock is at 3
		}
	}
	alg.onTimer = func(p Platform, now float64) { fired = append(fired, now) }
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: 3, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("timer fired during the scheduling admission: %v", fired)
	}
	// The next admission (at t=7) must first deliver the overdue timer,
	// clamped to the clock value it was overdue at (3, not 1).
	var arrivedAt float64
	alg.onWorker = func(p Platform, w int, now float64) { arrivedAt = now }
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(2, 2), Arrive: 7, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Errorf("fired = %v, want [3] (past time clamped to schedule-time clock)", fired)
	}
	if arrivedAt != 7 {
		t.Errorf("arrival delivered at %v, want 7 after the timer", arrivedAt)
	}
}

// TestScheduleKeepsSinglePendingTimer: a newer Schedule overrides the
// earlier pending one; only the latest fires.
func TestScheduleKeepsSinglePendingTimer(t *testing.T) {
	var fired []float64
	alg := &scriptAlg{name: "override"}
	alg.onTimer = func(p Platform, now float64) { fired = append(fired, now) }
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	s.Schedule(2)
	s.Schedule(4) // overrides the pending 2
	s.Advance(10)
	if len(fired) != 1 || fired[0] != 4 {
		t.Errorf("fired = %v, want [4] (single pending timer, newest wins)", fired)
	}
}

func TestAdvanceFiresTimerChains(t *testing.T) {
	var fired []float64
	alg := &scriptAlg{name: "chain"}
	alg.onTimer = func(p Platform, now float64) {
		fired = append(fired, now)
		if now < 3 {
			p.Schedule(now + 1)
		}
	}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	s.Schedule(1)
	if got := s.Advance(5); got != 5 {
		t.Errorf("Advance returned %v, want 5", got)
	}
	want := []float64{1, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// Advance backwards is a no-op.
	if got := s.Advance(2); got != 5 {
		t.Errorf("backwards Advance moved clock to %v", got)
	}
}

// TestDrainAndOnMatch: committed pairs surface as EventMatch both through
// the OnEvent callback (synchronously) and through DrainEvents
// (incrementally).
func TestDrainAndOnMatch(t *testing.T) {
	var cb []SessionEvent
	match := func(w, tk int, at float64) SessionEvent {
		return SessionEvent{Kind: EventMatch, Worker: w, Task: tk, Time: at}
	}
	alg := &scriptAlg{name: "drain"}
	alg.onTask = func(p Platform, tk int, now float64) {
		for w := 0; w < p.NumWorkers(); w++ {
			if p.TryMatch(w, tk, now) {
				return
			}
		}
	}
	s := testMatcher(t, Strict, Hints{}, func(ev SessionEvent) { cb = append(cb, ev) }).NewSession(alg)
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTask(model.Task{Loc: geo.Pt(1, 2), Release: 1, Expiry: 5}); err != nil {
		t.Fatal(err)
	}
	got := s.DrainEvents(nil)
	if len(got) != 1 || got[0] != match(0, 0, 1) {
		t.Fatalf("DrainEvents = %v", got)
	}
	if len(cb) != 1 || cb[0] != got[0] {
		t.Fatalf("OnEvent saw %v, want %v", cb, got)
	}
	// DrainEvents is incremental: nothing new yet.
	if again := s.DrainEvents(nil); len(again) != 0 {
		t.Errorf("second DrainEvents = %v, want empty", again)
	}
	// A later commit shows up in the next DrainEvents only.
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(5, 5), Arrive: 2, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTask(model.Task{Loc: geo.Pt(5, 6), Release: 3, Expiry: 5}); err != nil {
		t.Fatal(err)
	}
	got = s.DrainEvents(got)
	if len(got) != 2 || got[1] != match(1, 1, 3) {
		t.Fatalf("DrainEvents after second match = %v", got)
	}
}

func TestFinishRejectsFurtherAdmissions(t *testing.T) {
	finishedAt := -1.0
	alg := &scriptAlg{name: "fin", onFinish: func(p Platform, now float64) { finishedAt = now }}
	s := testMatcher(t, Strict, Hints{Horizon: 9}, nil).NewSession(alg)
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: 2, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if finishedAt != 9 {
		t.Errorf("OnFinish at %v, want hinted horizon 9", finishedAt)
	}
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: 10, Patience: 1}); err != ErrFinished {
		t.Errorf("AddWorker after Finish: err = %v, want ErrFinished", err)
	}
	if _, err := s.AddTask(model.Task{Loc: geo.Pt(1, 1), Release: 10, Expiry: 1}); err != ErrFinished {
		t.Errorf("AddTask after Finish: err = %v, want ErrFinished", err)
	}
	// Finish is idempotent and accessors stay usable.
	s.Finish()
	if s.Matching().Size() != 0 || s.NumWorkers() != 1 {
		t.Error("post-finish accessors broken")
	}
}

// TestSessionResetReusesStorage: after Reset the session is empty, and the
// arena pages survive so a second identical run fills the same pages.
func TestSessionResetReusesStorage(t *testing.T) {
	alg := &scriptAlg{name: "reset"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	for i := 0; i < 100; i++ {
		if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: float64(i), Patience: 1}); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Worker(0)
	s.Finish()
	s.Reset(alg)
	if s.NumWorkers() != 0 || !math.IsInf(s.Now(), -1) || s.finished {
		t.Fatal("Reset did not rewind session state")
	}
	if !math.IsInf(s.timer, 1) {
		t.Fatal("Reset did not clear pending timer")
	}
	for i := 0; i < 100; i++ {
		if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: float64(i), Patience: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Worker(0) != first {
		t.Error("worker arena reallocated across Reset")
	}
}

// TestAdmissionPathDoesNotAllocateAtSteadyState: once the arenas have
// grown to the traffic level, admitting arrivals through the session (the
// platform side of the per-arrival hot path) allocates nothing. Matches
// are excluded deliberately — the committed matching escapes to the
// caller, so its growth is the one unavoidable allocation.
func TestAdmissionPathDoesNotAllocateAtSteadyState(t *testing.T) {
	alg := &scriptAlg{name: "noop"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	feed := func() {
		for i := 0; i < 512; i++ {
			at := float64(i)
			if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: at, Patience: 5}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddTask(model.Task{Loc: geo.Pt(2, 2), Release: at, Expiry: 5}); err != nil {
				t.Fatal(err)
			}
			s.Dispatch(i, geo.Pt(3, 3), at)
			s.WorkerPos(i, at+0.5)
		}
	}
	feed() // grow the arenas
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset(alg)
		feed()
	})
	if allocs != 0 {
		t.Errorf("steady-state admission allocates %v per 1024-arrival session, want 0", allocs)
	}
}

// TestRecordedTimestampsSurviveReplay: the clock starts unset, so a
// recorded stream replays with its timestamps intact — including negative
// ones (e.g. epoch-relative traces) — rather than being clamped to 0,
// which would silently extend deadlines.
func TestRecordedTimestampsSurviveReplay(t *testing.T) {
	var arrivals []float64
	alg := &scriptAlg{
		name:     "negative",
		onWorker: func(p Platform, w int, now float64) { arrivals = append(arrivals, now) },
	}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: -5, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if got := s.Worker(0).Arrive; got != -5 {
		t.Errorf("recorded Arrive rewritten to %v, want -5", got)
	}
	if got := s.Worker(0).Deadline(); got != 5 {
		t.Errorf("deadline %v, want 5 (recorded arrival honored)", got)
	}
	if len(arrivals) != 1 || arrivals[0] != -5 {
		t.Errorf("arrival delivered at %v, want [-5]", arrivals)
	}
	// Finishing an all-negative-time session still lands at the clock
	// origin, like the replay engine's horizon handling.
	finishedAt := math.NaN()
	alg.onFinish = func(p Platform, now float64) { finishedAt = now }
	s.Finish()
	if finishedAt != 0 {
		t.Errorf("OnFinish at %v, want 0", finishedAt)
	}
}
