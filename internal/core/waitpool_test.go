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
