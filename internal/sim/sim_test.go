package sim

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

func twoByTwo() *model.Instance {
	return &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Horizon:  20,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Arrive: 0, Patience: 10},
			{ID: 1, Loc: geo.Pt(5, 5), Arrive: 1, Patience: 10},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 0), Release: 2, Expiry: 3},
			{ID: 1, Loc: geo.Pt(9, 9), Release: 3, Expiry: 1},
		},
	}
}

// scriptAlg lets tests drive the platform directly from arrival hooks.
type scriptAlg struct {
	name     string
	onWorker func(p Platform, w int, now float64)
	onTask   func(p Platform, t int, now float64)
	onTimer  func(p Platform, now float64)
	onFinish func(p Platform, now float64)
	p        Platform
}

func (s *scriptAlg) Name() string    { return s.name }
func (s *scriptAlg) Init(p Platform) { s.p = p }
func (s *scriptAlg) OnFinish(now float64) {
	if s.onFinish != nil {
		s.onFinish(s.p, now)
	}
}
func (s *scriptAlg) OnWorkerArrival(w int, now float64) {
	if s.onWorker != nil {
		s.onWorker(s.p, w, now)
	}
}
func (s *scriptAlg) OnTaskArrival(t int, now float64) {
	if s.onTask != nil {
		s.onTask(s.p, t, now)
	}
}
func (s *scriptAlg) OnTimer(now float64) {
	if s.onTimer != nil {
		s.onTimer(s.p, now)
	}
}

// testSession opens a session shaped like the instance (same mode,
// velocity, bounds, hints) with every worker and task already admitted in
// event order, driven by a do-nothing script, so platform-level tests can
// poke ground truth directly. Handles equal instance indexes because
// twoByTwo's arrivals are time-sorted per side.
func testSession(t *testing.T, in *model.Instance, mode Mode) *Session {
	t.Helper()
	m, err := NewMatcher(MatcherConfig{
		Mode:     mode,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		Hints: Hints{
			ExpectedWorkers: len(in.Workers),
			ExpectedTasks:   len(in.Tasks),
			Horizon:         in.Horizon,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(&scriptAlg{name: "noop"})
	for _, ev := range in.Events() {
		switch ev.Kind {
		case model.WorkerArrival:
			if h, err := s.AddWorker(in.Workers[ev.Index]); err != nil || h != ev.Index {
				t.Fatalf("AddWorker(%d) = %d, %v", ev.Index, h, err)
			}
		case model.TaskArrival:
			if h, err := s.AddTask(in.Tasks[ev.Index]); err != nil || h != ev.Index {
				t.Fatalf("AddTask(%d) = %d, %v", ev.Index, h, err)
			}
		}
	}
	return s
}

func TestWorkerMovement(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, Strict)
	// Worker 0 dispatched at t=0 from (0,0) to (6,8): distance 10, v=1.
	s.Dispatch(0, geo.Pt(6, 8), 0)
	p := s.WorkerPos(0, 5)
	if math.Abs(p.X-3) > 1e-9 || math.Abs(p.Y-4) > 1e-9 {
		t.Errorf("pos at t=5 = %v, want (3,4)", p)
	}
	// Arrival and beyond: clamps at target.
	p = s.WorkerPos(0, 10)
	if p != geo.Pt(6, 8) {
		t.Errorf("pos at t=10 = %v, want (6,8)", p)
	}
	p = s.WorkerPos(0, 15)
	if p != geo.Pt(6, 8) {
		t.Errorf("pos at t=15 = %v, want (6,8)", p)
	}
	// Re-dispatch mid-flight anchors at current position.
	s = testSession(t, in, Strict)
	s.Dispatch(0, geo.Pt(10, 0), 0) // heading east
	s.Dispatch(0, geo.Pt(5, 5), 2)  // from (2,0) turn north-east-ish
	p = s.WorkerPos(0, 2)
	if math.Abs(p.X-2) > 1e-9 || math.Abs(p.Y) > 1e-9 {
		t.Errorf("pos after re-dispatch = %v, want (2,0)", p)
	}
	// Query before arrival time returns the anchor.
	s = testSession(t, in, Strict)
	if got := s.WorkerPos(1, 0.5); got != geo.Pt(5, 5) {
		t.Errorf("pos before arrival = %v", got)
	}
}

func TestAvailability(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, Strict)
	if !s.WorkerAvailable(0, 5) {
		t.Error("worker should be available before deadline")
	}
	if s.WorkerAvailable(0, 10) {
		t.Error("worker at exactly its deadline must be unavailable (Sr < Sw+Dw is strict)")
	}
	if !s.TaskAvailable(0, 5) {
		t.Error("task should be available at its deadline")
	}
	if s.TaskAvailable(0, 5.01) {
		t.Error("task past deadline must be unavailable")
	}
}

func TestTryMatchStrict(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, Strict)
	// Worker 0 at (0,0), task 0 at (1,0) released t=2 expiry 3: at now=2,
	// travel 1 ≤ 3. Feasible.
	if !s.TryMatch(0, 0, 2) {
		t.Fatal("feasible match rejected")
	}
	// Double-match either side must fail.
	if s.TryMatch(0, 1, 3) {
		t.Error("matched worker reused")
	}
	if s.TryMatch(1, 0, 3) {
		t.Error("matched task reused")
	}
	// Worker 1 at (5,5) to task 1 at (9,9) released 3 expiry 1: distance
	// 5.66 > 1. Infeasible in strict mode.
	if s.TryMatch(1, 1, 3) {
		t.Error("infeasible match accepted in strict mode")
	}
	if s.Rejected() != 3 {
		t.Errorf("rejected = %d, want 3", s.Rejected())
	}
}

func TestTryMatchAssumeGuide(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, AssumeGuide)
	// The same infeasible pair is accepted under the paper's assumption.
	if !s.TryMatch(1, 1, 3) {
		t.Error("assume-guide mode rejected an available pair")
	}
	// But uniqueness still holds.
	if s.TryMatch(1, 0, 3) {
		t.Error("matched worker reused in assume-guide mode")
	}
}

func TestStrictMatchAfterMovement(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, Strict)
	// Task 1 at (9,9) released t=3 expiry 1 is unreachable from (5,5) at
	// t=3 (distance 5.66 > 1) but a worker dispatched at t=1 toward (9,9)
	// has covered 2 units by t=3 — still 3.66 away, infeasible.
	s.Dispatch(1, geo.Pt(9, 9), 1)
	// At t=3 the worker is 2 units along the diagonal from (5,5).
	pos := s.WorkerPos(1, 3)
	wantAlong := 2.0
	if math.Abs(pos.Dist(geo.Pt(5, 5))-wantAlong) > 1e-9 {
		t.Fatalf("worker traveled %v, want %v", pos.Dist(geo.Pt(5, 5)), wantAlong)
	}
	if s.TryMatch(1, 1, 3) {
		t.Error("still too far: match must be rejected")
	}
	// With a much later, easier task this would pass; emulate by moving
	// time forward: at t=6.5 the worker is ~5.5 along, 0.16 from (9,9).
	// Task deadline is 4 though, so the platform must still reject.
	if s.TryMatch(1, 1, 6.5) {
		t.Error("match after task deadline accepted")
	}
}

func TestDispatchIgnoredForMatched(t *testing.T) {
	in := twoByTwo()
	s := testSession(t, in, Strict)
	if !s.TryMatch(0, 0, 2) {
		t.Fatal("setup match failed")
	}
	s.Dispatch(0, geo.Pt(9, 9), 2)
	if s.wstate[0].motion >= 0 {
		t.Error("matched worker should not start moving")
	}
}

func TestRunDeliversEventsInOrder(t *testing.T) {
	in := twoByTwo()
	e := NewEngine(in, Strict)
	var log []float64
	alg := &scriptAlg{
		name:     "script",
		onWorker: func(p Platform, w int, now float64) { log = append(log, now) },
		onTask:   func(p Platform, t int, now float64) { log = append(log, now) },
	}
	res := e.Run(alg)
	want := []float64{0, 1, 2, 3}
	if len(log) != len(want) {
		t.Fatalf("delivered %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("delivered %v, want %v", log, want)
		}
	}
	if res.Algorithm != "script" {
		t.Errorf("result algorithm = %q", res.Algorithm)
	}
}

func TestTimersFireBetweenEvents(t *testing.T) {
	in := twoByTwo()
	e := NewEngine(in, Strict)
	var fired []float64
	alg := &scriptAlg{
		name: "timer",
		onTimer: func(p Platform, now float64) {
			fired = append(fired, now)
			if now < 4 {
				p.Schedule(now + 1.5)
			}
		},
	}
	alg.onWorker = func(p Platform, w int, now float64) {
		if w == 0 {
			p.Schedule(0.5)
		}
	}
	e.Run(alg)
	want := []float64{0.5, 2.0, 3.5, 5.0}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestRunFinishesWithHorizon(t *testing.T) {
	in := twoByTwo()
	in.Horizon = 42
	e := NewEngine(in, Strict)
	finishedAt := -1.0
	alg := &scriptAlg{
		name:     "finish",
		onFinish: func(p Platform, now float64) { finishedAt = now },
	}
	e.Run(alg)
	if finishedAt != 42 {
		t.Errorf("OnFinish at %v, want horizon 42", finishedAt)
	}
}

func TestResultCountsAndValidity(t *testing.T) {
	in := twoByTwo()
	e := NewEngine(in, Strict)
	alg := &scriptAlg{
		name: "matcher",
		onTask: func(p Platform, t int, now float64) {
			// Try to match every admitted worker with every arriving task.
			for w := 0; w < p.NumWorkers(); w++ {
				if p.TryMatch(w, t, now) {
					return
				}
			}
		},
	}
	res := e.Run(alg)
	if res.Matching.Size() != 1 {
		t.Errorf("size = %d, want 1 (only worker0-task0 feasible)", res.Matching.Size())
	}
	if err := res.Matching.Validate(in); err != nil {
		t.Error(err)
	}
	if res.Attempted == 0 || res.Rejected != res.Attempted-1 {
		t.Errorf("attempted=%d rejected=%d", res.Attempted, res.Rejected)
	}
	if res.Elapsed < 0 {
		t.Error("elapsed negative")
	}
}

func TestRunIsRepeatable(t *testing.T) {
	in := twoByTwo()
	e := NewEngine(in, Strict)
	alg := &scriptAlg{
		name: "m",
		onTask: func(p Platform, t int, now float64) {
			for w := 0; w < p.NumWorkers(); w++ {
				if p.TryMatch(w, t, now) {
					return
				}
			}
		},
	}
	a := e.Run(alg).Matching.Size()
	b := e.Run(alg).Matching.Size()
	if a != b {
		t.Errorf("runs differ: %d vs %d", a, b)
	}
}

// TestRunTranslatesUnsortedArrivals replays an instance whose per-side
// slice order disagrees with arrival order, so session handles differ from
// instance indexes; Result.Matching must still be expressed in instance
// indexes.
func TestRunTranslatesUnsortedArrivals(t *testing.T) {
	in := &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Horizon:  20,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(9, 9), Arrive: 4, Patience: 10}, // arrives second
			{ID: 1, Loc: geo.Pt(0, 0), Arrive: 0, Patience: 10}, // arrives first
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(9, 8), Release: 5, Expiry: 3}, // near worker 0
			{ID: 1, Loc: geo.Pt(1, 0), Release: 2, Expiry: 3}, // near worker 1
		},
	}
	e := NewEngine(in, Strict)
	alg := &scriptAlg{
		name: "nearest",
		onTask: func(p Platform, tk int, now float64) {
			task := p.Task(tk)
			best, bestDist := -1, math.Inf(1)
			for w := 0; w < p.NumWorkers(); w++ {
				if !p.WorkerAvailable(w, now) {
					continue
				}
				if d := p.WorkerPos(w, now).Dist(task.Loc); d < bestDist {
					best, bestDist = w, d
				}
			}
			if best >= 0 {
				p.TryMatch(best, tk, now)
			}
		},
	}
	res := e.Run(alg)
	if res.Matching.Size() != 2 {
		t.Fatalf("size = %d, want 2", res.Matching.Size())
	}
	if err := res.Matching.Validate(in); err != nil {
		t.Fatalf("translated matching invalid: %v", err)
	}
	// The nearest pairing in instance indexes is w0-t0 and w1-t1.
	for _, p := range res.Matching.Pairs {
		if p.Worker != p.Task {
			t.Errorf("pair %+v, want worker==task under instance indexing", p)
		}
	}
}

func TestModeString(t *testing.T) {
	if Strict.String() != "strict" || AssumeGuide.String() != "assume-guide" {
		t.Error("mode strings")
	}
}
