package sim

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// TestLifecycleEventStream: matches and expiries interleave in one typed
// stream with non-decreasing times; DrainEvents is incremental and Drain
// is its match-only view over the same cursor.
func TestLifecycleEventStream(t *testing.T) {
	alg := &scriptAlg{name: "events"}
	alg.onTask = func(p Platform, tk int, now float64) {
		for w := 0; w < p.NumWorkers(); w++ {
			if p.WorkerAvailable(w, now) && p.TryMatch(w, tk, now) {
				return
			}
		}
	}
	var hook []SessionEvent
	m, err := NewMatcher(MatcherConfig{
		Mode:     Strict,
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		OnEvent:  func(ev SessionEvent) { hook = append(hook, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(alg)

	// Worker 0 is matched at t=1; worker 1 (patience 2, deadline 4)
	// expires; task 1 (expiry 1, deadline 6) expires.
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 10})
	mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 2), Release: 1, Expiry: 5})
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(9, 9), Arrive: 2, Patience: 2})
	mustAddTask(t, s, model.Task{Loc: geo.Pt(5, 5), Release: 5, Expiry: 1})
	s.Advance(20)

	got := s.DrainEvents(nil)
	want := []SessionEvent{
		{Kind: EventMatch, Worker: 0, Task: 0, Time: 1},
		{Kind: EventWorkerExpired, Worker: 1, Task: -1, Time: 4},
		{Kind: EventTaskExpired, Worker: -1, Task: 1, Time: 6},
	}
	if len(got) != len(want) {
		t.Fatalf("DrainEvents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(hook) != len(want) {
		t.Fatalf("OnEvent saw %v", hook)
	}
	for i := range want {
		if hook[i] != want[i] {
			t.Fatalf("OnEvent %d = %v, want %v", i, hook[i], want[i])
		}
	}
	if s.ExpiredWorkers() != 1 || s.ExpiredTasks() != 1 {
		t.Fatalf("expired = %d/%d, want 1/1", s.ExpiredWorkers(), s.ExpiredTasks())
	}
	// Incremental: nothing new.
	if again := s.DrainEvents(nil); len(again) != 0 {
		t.Fatalf("second DrainEvents = %v, want empty", again)
	}
}

// TestTaskExpiryBoundary: a task is matchable AT its deadline, so the
// expiry only fires once the clock strictly passes it — and a match at
// exactly the deadline suppresses it.
func TestTaskExpiryBoundary(t *testing.T) {
	alg := &scriptAlg{name: "boundary"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 2), Release: 0, Expiry: 5})
	s.Advance(5) // exactly the deadline: not expired yet
	if evs := s.DrainEvents(nil); len(evs) != 0 {
		t.Fatalf("events at deadline = %v, want none", evs)
	}
	// A worker arriving at t=5 can still serve it.
	alg.onWorker = func(p Platform, w int, now float64) { p.TryMatch(w, 0, now) }
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 2), Arrive: 5, Patience: 10})
	s.Advance(10)
	evs := s.DrainEvents(nil)
	if len(evs) != 1 || evs[0].Kind != EventMatch {
		t.Fatalf("events = %v, want just the deadline-instant match", evs)
	}
	if s.ExpiredTasks() != 0 {
		t.Fatalf("task counted expired despite deadline-instant match")
	}
}

// TestWorkerExpiryBoundary: a worker is unavailable AT its deadline, so
// the expiry fires when the clock reaches it exactly.
func TestWorkerExpiryBoundary(t *testing.T) {
	alg := &scriptAlg{name: "wboundary"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 5})
	s.Advance(5)
	evs := s.DrainEvents(nil)
	if len(evs) != 1 || evs[0] != (SessionEvent{Kind: EventWorkerExpired, Worker: 0, Task: -1, Time: 5}) {
		t.Fatalf("events = %v, want worker expiry at 5", evs)
	}
}

// TestFinishFlushesExpiries: Finish advances to the horizon and flushes
// every deadline at or before it — including a task deadline exactly at
// the end — while later deadlines stay silent (those objects outlive the
// session).
func TestFinishFlushesExpiries(t *testing.T) {
	alg := &scriptAlg{name: "finflush"}
	s := testMatcher(t, Strict, Hints{Horizon: 10}, nil).NewSession(alg)
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 7})  // deadline 7 <= 10: expires
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 99}) // deadline 99 > 10: silent
	mustAddTask(t, s, model.Task{Loc: geo.Pt(3, 3), Release: 2, Expiry: 8})       // deadline 10 == end: expires
	s.Finish()
	evs := s.DrainEvents(nil)
	want := []SessionEvent{
		{Kind: EventWorkerExpired, Worker: 0, Task: -1, Time: 7},
		{Kind: EventTaskExpired, Worker: -1, Task: 0, Time: 10},
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %v, want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, evs[i], want[i])
		}
	}
}

// TestExpiryHandlesOutOfOrderDeadlines exercises the overflow heap:
// deadlines pushed in strictly decreasing order (impossible for the FIFO
// fast path) must still fire in deadline order.
func TestExpiryHandlesOutOfOrderDeadlines(t *testing.T) {
	alg := &scriptAlg{name: "outoforder"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	// All arrive at t=0 with decreasing patience: deadlines 9, 7, 5, 3.
	for i := 0; i < 4; i++ {
		mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: float64(9 - 2*i)})
	}
	s.Advance(20)
	evs := s.DrainEvents(nil)
	if len(evs) != 4 {
		t.Fatalf("events = %v, want 4 expiries", evs)
	}
	wantTimes := []float64{3, 5, 7, 9}
	wantWorkers := []int{3, 2, 1, 0}
	for i, ev := range evs {
		if ev.Kind != EventWorkerExpired || ev.Time != wantTimes[i] || ev.Worker != wantWorkers[i] {
			t.Fatalf("event %d = %v, want worker %d expiring at %v", i, ev, wantWorkers[i], wantTimes[i])
		}
	}
}

// TestExpiryInterleavesWithTimer: platform expiries fire chronologically
// against the algorithm's Schedule timer without consuming its single
// slot.
func TestExpiryInterleavesWithTimer(t *testing.T) {
	var order []string
	alg := &scriptAlg{name: "interleave"}
	alg.onTimer = func(p Platform, now float64) { order = append(order, "timer") }
	m := testMatcher(t, Strict, Hints{}, nil)
	s := m.NewSession(alg)
	s.Schedule(6)
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 4}) // expires at 4, before the timer
	s.Advance(10)
	evs := s.DrainEvents(nil)
	if len(evs) != 1 || evs[0].Time != 4 {
		t.Fatalf("events = %v, want worker expiry at 4", evs)
	}
	if len(order) != 1 {
		t.Fatalf("timer fired %d times, want 1 (expiry must not consume the slot)", len(order))
	}
}

// TestCompactEvents: the drained prefix is reclaimed in place, keeping
// capacity and the undrained tail.
func TestCompactEvents(t *testing.T) {
	alg := &scriptAlg{name: "compact"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	for i := 0; i < 8; i++ {
		mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: float64(i), Patience: 0.5})
	}
	// The admissions advanced the clock to 7, firing deadlines 0.5..6.5.
	if got := len(s.DrainEvents(nil)); got != 7 {
		t.Fatalf("drained %d events, want 7", got)
	}
	s.Advance(100) // worker 7's expiry at 7.5
	s.CompactEvents()
	if s.drained != 0 || len(s.events) != 1 {
		t.Fatalf("after compact: drained=%d len=%d, want 0/1", s.drained, len(s.events))
	}
	evs := s.DrainEvents(nil)
	if len(evs) != 1 || evs[0].Worker != 7 {
		t.Fatalf("post-compact DrainEvents = %v, want worker 7's expiry", evs)
	}
}

// TestEventPathDoesNotAllocateAtSteadyState extends the admission-path
// alloc gate to the full event lifecycle: admissions, expiries, drains
// into a reused buffer, and compaction allocate nothing once the arenas
// have grown.
func TestEventPathDoesNotAllocateAtSteadyState(t *testing.T) {
	alg := &scriptAlg{name: "noop"}
	s := testMatcher(t, Strict, Hints{}, nil).NewSession(alg)
	var buf []SessionEvent
	feed := func() {
		for i := 0; i < 512; i++ {
			at := float64(i)
			if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Arrive: at, Patience: 5}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddTask(model.Task{Loc: geo.Pt(2, 2), Release: at, Expiry: 5}); err != nil {
				t.Fatal(err)
			}
			if i%32 == 0 {
				buf = s.DrainEvents(buf[:0])
				s.CompactEvents()
			}
		}
	}
	feed() // grow the arenas
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset(alg)
		feed()
	})
	if allocs != 0 {
		t.Errorf("steady-state event path allocates %v per 1024-arrival session, want 0", allocs)
	}
}

// TestEventTimesMonotone: the stream a mixed workload produces never goes
// backwards in time, even with expiries firing lazily.
func TestEventTimesMonotone(t *testing.T) {
	alg := &scriptAlg{name: "monotone"}
	alg.onTask = func(p Platform, tk int, now float64) {
		for w := 0; w < p.NumWorkers(); w++ {
			if p.WorkerAvailable(w, now) && p.TryMatch(w, tk, now) {
				return
			}
		}
	}
	s := testMatcher(t, Strict, Hints{Horizon: 64}, nil).NewSession(alg)
	for i := 0; i < 64; i++ {
		at := float64(i)
		mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: at, Patience: float64(1 + i%7)})
		mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 2), Release: at + 0.5, Expiry: float64(1 + (i*3)%5)})
	}
	s.Finish()
	evs := s.DrainEvents(nil)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	last := math.Inf(-1)
	for i, ev := range evs {
		if ev.Time < last {
			t.Fatalf("event %d time %v < previous %v: %v", i, ev.Time, last, ev)
		}
		last = ev.Time
	}
}

func mustAddWorker(t *testing.T, s *Session, w model.Worker) int {
	t.Helper()
	h, err := s.AddWorker(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustAddTask(t *testing.T, s *Session, tk model.Task) int {
	t.Helper()
	h, err := s.AddTask(tk)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
