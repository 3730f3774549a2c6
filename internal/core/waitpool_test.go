package core

import (
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
	"ftoa/internal/workload"
)

// TestTGOAWithoutHintsIsSimpleGreedy: with zero Hints TGOA cannot locate
// its halfway point and never leaves its greedy first half, which is the
// wait-in-place pool alone — so on the same arrivals its whole lifecycle
// event stream (every match and expiry, in order) is SimpleGreedy's.
func TestTGOAWithoutHintsIsSimpleGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := workload.DefaultSynthetic()
		cfg.NumWorkers, cfg.NumTasks = 800, 800
		cfg.Seed = seed
		in, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
			m, err := sim.NewMatcher(sim.MatcherConfig{Mode: mode, Velocity: in.Velocity, Bounds: in.Bounds})
			if err != nil {
				t.Fatal(err)
			}
			run := func(alg sim.Algorithm) []sim.SessionEvent {
				s := m.NewSession(alg)
				feedInstance(t, s, in)
				s.Finish()
				return s.DrainEvents(nil)
			}
			greedy, tgoa := run(NewSimpleGreedy()), run(NewTGOA())
			if len(greedy) == 0 {
				t.Fatalf("seed %d %v: degenerate, no events", seed, mode)
			}
			if len(tgoa) != len(greedy) {
				t.Fatalf("seed %d %v: TGOA emitted %d events, SimpleGreedy %d", seed, mode, len(tgoa), len(greedy))
			}
			for i := range greedy {
				if tgoa[i] != greedy[i] {
					t.Fatalf("seed %d %v: event %d is %+v, SimpleGreedy's %+v", seed, mode, i, tgoa[i], greedy[i])
				}
			}
		}
	}
}

// TestHybridFallbackReachesDispatchedWorkers: with patience well above
// expiry a guide-dispatched worker can wait far from where it arrived. Here
// POLAR-OP's guide sends the only worker from x=10 toward the predicted task
// cell; at t=30 it is at x=40 when a task the guide did not predict appears
// at x=42 — within Dr·v of the worker's live position, but 32 from its
// origin, beyond the 2·Dr·v radius the fallback used to search. The guide
// path ignores the task, so the fallback must find the worker.
func TestHybridFallbackReachesDispatchedWorkers(t *testing.T) {
	const dw, dr = 100.0, 5.0
	bounds := geo.NewRect(0, 0, 100, 10)
	cfg := guide.Config{
		Grid:           geo.NewGrid(bounds, 2, 1), // area 0: x < 50, area 1: x ≥ 50
		Slots:          timeslot.New(100, 1),
		Velocity:       1,
		WorkerPatience: dw,
		TaskExpiry:     dr,
		RepSlack:       50, // the guide's one pair spans the two area centres
	}
	g, err := guide.NewManual(cfg,
		[]guide.CellPlan{{
			Key: timeslot.CellKey{Slot: 0, Area: 0}, Count: 1, Matched: 1,
			Runs: []guide.Run{{Offset: 0, Partner: 0, PartnerOffset: 0, Count: 1}},
		}},
		[]guide.CellPlan{{
			Key: timeslot.CellKey{Slot: 0, Area: 1}, Count: 1, Matched: 1,
			Runs: []guide.Run{{Offset: 0, Partner: 0, PartnerOffset: 0, Count: 1}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	in := &model.Instance{
		Velocity: 1,
		Bounds:   bounds,
		Horizon:  100,
		Workers:  []model.Worker{{ID: 1, Loc: geo.Pt(10, 5), Arrive: 0, Patience: dw}},
		Tasks:    []model.Task{{ID: 1, Loc: geo.Pt(42, 5), Release: 30, Expiry: dr}},
	}
	for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
		alg := NewHybrid(g)
		res := sim.NewEngine(in, mode).Run(alg)
		if res.Matching.Size() != 1 || alg.FallbackMatches() != 1 {
			t.Errorf("mode %v: matched %d (fallback %d), want the dispatched worker matched by the fallback",
				mode, res.Matching.Size(), alg.FallbackMatches())
		}
		if err := res.Matching.Validate(in); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// TestWithdrawnWaitersLeaveAtRetire: withdrawal does not call the
// algorithm, so a withdrawn waiter that no search ever visits stays in the
// pool's index — but only until the next Retire, whose Remap drops it.
// Tasks wait on the left, workers on the right, each side beyond the
// other's search radius; a third of each is withdrawn.
func TestWithdrawnWaitersLeaveAtRetire(t *testing.T) {
	const n = 30
	bounds := geo.NewRect(0, 0, 100, 10)
	empty, err := guide.NewManual(guide.Config{
		Grid:           geo.NewGrid(bounds, 2, 1),
		Slots:          timeslot.New(100, 1),
		Velocity:       1,
		WorkerPatience: 50,
		TaskExpiry:     50,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
		greedy, hybrid := NewSimpleGreedy(), NewHybrid(empty)
		for _, c := range []struct {
			name string
			alg  sim.Algorithm
			pool *waitPool
		}{
			{"SimpleGreedy", greedy, &greedy.waitPool},
			{"Hybrid", hybrid, &hybrid.waitPool},
		} {
			m, err := sim.NewMatcher(sim.MatcherConfig{Mode: mode, Velocity: 1, Bounds: bounds})
			if err != nil {
				t.Fatal(err)
			}
			s := m.NewSession(c.alg)
			liveW, liveT := 0, 0
			for i := 0; i < n; i++ {
				tk, err := s.AddTask(model.Task{Loc: geo.Pt(float64(i), 5), Release: 0, Expiry: 5})
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					s.WithdrawTask(tk)
				} else {
					liveT++
				}
			}
			for i := 0; i < n; i++ {
				w, err := s.AddWorker(model.Worker{Loc: geo.Pt(float64(99-i), 5), Arrive: 0, Patience: 5})
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					s.WithdrawWorker(w)
				} else {
					liveW++
				}
			}
			if s.Matches() != 0 || c.pool.workers.Len() != n || c.pool.tasks.Len() != n {
				t.Fatalf("%s/%v: %d matches, indexes %d/%d before retire; want 0 and every waiter (%d) still indexed",
					c.name, mode, s.Matches(), c.pool.workers.Len(), c.pool.tasks.Len(), n)
			}
			s.Retire(s.Now())
			if c.pool.workers.Len() != liveW || c.pool.tasks.Len() != liveT {
				t.Fatalf("%s/%v: indexes hold %d workers, %d tasks after retire; want the live %d, %d",
					c.name, mode, c.pool.workers.Len(), c.pool.tasks.Len(), liveW, liveT)
			}
			if s.NumWorkers() != liveW || s.NumTasks() != liveT {
				t.Fatalf("%s/%v: arenas %d/%d after retire, want %d/%d", c.name, mode, s.NumWorkers(), s.NumTasks(), liveW, liveT)
			}
		}
	}
}

// TestSearchSweepsWithdrawnWaiters: a search removes every withdrawn
// waiter within its reach, not only those nearer than what it matches, so
// halo ghosts withdrawn in a busy neighbourhood do not pile up in the
// index until the next Retire. One bucket holds every task; the arriving
// worker matches the nearest and passes over the nine withdrawn beyond it.
func TestSearchSweepsWithdrawnWaiters(t *testing.T) {
	a := NewSimpleGreedy()
	m, err := sim.NewMatcher(sim.MatcherConfig{
		Mode: sim.Strict, Velocity: 1, Bounds: geo.NewRect(0, 0, 100, 10),
		Hints: sim.Hints{ExpectedWorkers: 1, ExpectedTasks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(a)
	for i := 0; i < 10; i++ {
		tk, err := s.AddTask(model.Task{Loc: geo.Pt(float64(1+i), 5), Release: 0, Expiry: 50})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			s.WithdrawTask(tk)
		}
	}
	if _, err := s.AddWorker(model.Worker{Loc: geo.Pt(0, 5), Arrive: 0, Patience: 50}); err != nil {
		t.Fatal(err)
	}
	if s.Matches() != 1 || a.tasks.Len() != 0 {
		t.Fatalf("%d matches, %d tasks still indexed; want 1 and 0", s.Matches(), a.tasks.Len())
	}
}
