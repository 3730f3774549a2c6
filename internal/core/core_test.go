package core

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
)

// paperInstance builds the running example of Section 1 (Figure 1/Table 1):
// seven workers, six tasks in an 8×8 space, velocity 1 unit/min, worker
// patience 30 min, task expiry 2 min, over a 10-minute timeline.
func paperInstance() *model.Instance {
	ws := []struct{ x, y, at float64 }{
		{1, 6, 0}, {1, 8, 1}, {3, 7, 1}, {5, 3, 3}, {4, 1, 3}, {8, 2, 3}, {6, 1, 4},
	}
	ts := []struct{ x, y, at float64 }{
		{3, 6, 0}, {2, 5, 2}, {5, 6, 5}, {6, 5, 6}, {6, 7, 7}, {7, 6, 8},
	}
	in := &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 8, 8),
		Horizon:  10,
	}
	for i, w := range ws {
		in.Workers = append(in.Workers, model.Worker{
			ID: i + 1, Loc: geo.Pt(w.x, w.y), Arrive: w.at, Patience: 30,
		})
	}
	for i, r := range ts {
		in.Tasks = append(in.Tasks, model.Task{
			ID: i + 1, Loc: geo.Pt(r.x, r.y), Release: r.at, Expiry: 2,
		})
	}
	return in
}

// paperGuide reconstructs the exact offline guide of Figure 2c with
// NewManual. Under this package's grid numbering the paper's Area0
// (top-left) is cell 2, Area1 is cell 3, Area2 is cell 0 and Area3 is
// cell 1.
//
// Pairings (Figure 2c): Ŵ001↔R̂001, Ŵ002↔R̂111, Ŵ031↔R̂112, Ŵ032↔R̂113,
// Ŵ033↔R̂121.
func paperGuide(t *testing.T) *guide.Guide {
	t.Helper()
	cfg := guide.Config{
		Grid:           geo.NewGrid(geo.NewRect(0, 0, 8, 8), 2, 2),
		Slots:          timeslot.New(10, 2),
		Velocity:       1,
		WorkerPatience: 30,
		TaskExpiry:     2,
	}
	workerCells := []guide.CellPlan{
		{ // wc0 = Ŵ00x: slot 0, paper Area0 (= cell 2), two nodes
			Key: timeslot.CellKey{Slot: 0, Area: 2}, Count: 2, Matched: 2,
			Runs: []guide.Run{
				{Offset: 0, Partner: 0, PartnerOffset: 0, Count: 1}, // Ŵ001↔R̂001
				{Offset: 1, Partner: 1, PartnerOffset: 0, Count: 1}, // Ŵ002↔R̂111
			},
		},
		{ // wc1 = Ŵ03x: slot 0, paper Area3 (= cell 1), three nodes
			Key: timeslot.CellKey{Slot: 0, Area: 1}, Count: 3, Matched: 3,
			Runs: []guide.Run{
				{Offset: 0, Partner: 1, PartnerOffset: 1, Count: 2}, // Ŵ031↔R̂112, Ŵ032↔R̂113
				{Offset: 2, Partner: 2, PartnerOffset: 0, Count: 1}, // Ŵ033↔R̂121
			},
		},
	}
	taskCells := []guide.CellPlan{
		{ // tc0 = R̂00x: slot 0, paper Area0
			Key: timeslot.CellKey{Slot: 0, Area: 2}, Count: 1, Matched: 1,
			Runs: []guide.Run{{Offset: 0, Partner: 0, PartnerOffset: 0, Count: 1}},
		},
		{ // tc1 = R̂11x: slot 1, paper Area1 (= cell 3)
			Key: timeslot.CellKey{Slot: 1, Area: 3}, Count: 3, Matched: 3,
			Runs: []guide.Run{
				{Offset: 0, Partner: 0, PartnerOffset: 1, Count: 1},
				{Offset: 1, Partner: 1, PartnerOffset: 0, Count: 2},
			},
		},
		{ // tc2 = R̂12x: slot 1, paper Area2 (= cell 0)
			Key: timeslot.CellKey{Slot: 1, Area: 0}, Count: 1, Matched: 1,
			Runs: []guide.Run{{Offset: 0, Partner: 1, PartnerOffset: 2, Count: 1}},
		},
	}
	g, err := guide.NewManual(cfg, workerCells, taskCells)
	if err != nil {
		t.Fatalf("paper guide rejected: %v", err)
	}
	return g
}

// TestPaperRunningExample reproduces the worked example end to end.
//
// Expected sizes under the paper's own counting (AssumeGuide, which mirrors
// the analysis assumption that guide pairs are feasible in reality):
// SimpleGreedy = 1, POLAR = 4 (Example 5), POLAR-OP = 6 (Example 6),
// OPT = 6 (Example 2).
//
// Note on SimpleGreedy: the paper's Example 2 states matching size 2,
// counting w3→r2 as feasible; the Euclidean distance is √5 ≈ 2.24 > Dr = 2,
// so under the paper's own travel-cost definition (Definition 3) that pair
// is infeasible and greedy matches only w1–r1. We assert the
// geometry-consistent value 1.
func TestPaperRunningExample(t *testing.T) {
	in := paperInstance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	g := paperGuide(t)

	eng := sim.NewEngine(in, sim.AssumeGuide)

	greedy := eng.Run(NewSimpleGreedy())
	if got := greedy.Matching.Size(); got != 1 {
		t.Errorf("SimpleGreedy = %d, want 1 (paper says 2; see comment)", got)
	}
	if err := greedy.Matching.Validate(in); err != nil {
		t.Errorf("greedy matching invalid: %v", err)
	}

	polar := eng.Run(NewPOLAR(g))
	if got := polar.Matching.Size(); got != 4 {
		t.Errorf("POLAR = %d, want 4 (Example 5)", got)
	}

	polarOp := eng.Run(NewPOLAROP(g))
	if got := polarOp.Matching.Size(); got != 6 {
		t.Errorf("POLAR-OP = %d, want 6 (Example 6)", got)
	}

	opt := OPT(in, OPTOptions{})
	if got := opt.Size(); got != 6 {
		t.Errorf("OPT = %d, want 6 (Example 2)", got)
	}
	if err := opt.Validate(in); err != nil {
		t.Errorf("OPT matching invalid: %v", err)
	}

	gr := eng.Run(NewGR(1))
	if got := gr.Matching.Size(); got > opt.Size() {
		t.Errorf("GR = %d exceeds OPT %d", got, opt.Size())
	}
}

// TestPaperExampleStrict re-runs the guide-based algorithms under Strict
// validation: the discretisation of the guide (slot starts, cell centers)
// makes the w5–r5 pair physically miss its deadline by ~0.35 min, so both
// algorithms lose exactly the matches the paper's assumption papers over.
func TestPaperExampleStrict(t *testing.T) {
	in := paperInstance()
	g := paperGuide(t)
	eng := sim.NewEngine(in, sim.Strict)

	polar := eng.Run(NewPOLAR(g))
	if got := polar.Matching.Size(); got != 3 {
		t.Errorf("strict POLAR = %d, want 3", got)
	}
	if polar.Rejected == 0 {
		t.Error("strict POLAR should have rejected at least one attempt")
	}
	if err := polar.Matching.Validate(in); err != nil {
		t.Errorf("strict POLAR matching invalid: %v", err)
	}

	polarOp := eng.Run(NewPOLAROP(g))
	if got := polarOp.Matching.Size(); got != 4 {
		t.Errorf("strict POLAR-OP = %d, want 4", got)
	}
	if err := polarOp.Matching.Validate(in); err != nil {
		t.Errorf("strict POLAR-OP matching invalid: %v", err)
	}
}

func TestPOLAROPDominatesPOLAROnExample(t *testing.T) {
	in := paperInstance()
	g := paperGuide(t)
	for _, mode := range []sim.Mode{sim.Strict, sim.AssumeGuide} {
		eng := sim.NewEngine(in, mode)
		p := eng.Run(NewPOLAR(g)).Matching.Size()
		op := eng.Run(NewPOLAROP(g)).Matching.Size()
		if op < p {
			t.Errorf("mode %v: POLAR-OP %d < POLAR %d", mode, op, p)
		}
	}
}

func TestOPTExactOnSmallInstances(t *testing.T) {
	// Compare pruned OPT (with and without candidate cap) against a
	// brute-force maximum matching over all feasible pairs.
	in := paperInstance()
	want := bruteForceOPT(in)
	if got := OPT(in, OPTOptions{}).Size(); got != want {
		t.Errorf("OPT = %d, brute force = %d", got, want)
	}
	if got := OPT(in, OPTOptions{MaxCandidates: 3}).Size(); got > want {
		t.Errorf("capped OPT %d exceeds exact %d", got, want)
	}
}

func TestOPTEmpty(t *testing.T) {
	in := &model.Instance{Velocity: 1, Bounds: geo.NewRect(0, 0, 1, 1)}
	if got := OPT(in, OPTOptions{}).Size(); got != 0 {
		t.Errorf("OPT on empty instance = %d", got)
	}
}

func TestGRWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGR(0) should panic")
		}
	}()
	NewGR(0)
}

// TestNewGRRefusesNaN: a NaN window never fires a batch (every flush
// check against it is false), so the guard must refuse it with the
// non-positive ones.
func TestNewGRRefusesNaN(t *testing.T) {
	for _, tc := range []struct {
		window float64
		panics bool
	}{
		{math.NaN(), true},
		{0, true},
		{-1, true},
		{math.Inf(-1), true},
		{1, false},
		{math.Inf(1), false},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewGR(tc.window)
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("NewGR(%v): panicked=%v, want %v", tc.window, panicked, tc.panics)
		}
	}
}

// TestGRBatchesMatchWithinWindows checks GR on a crafted instance where
// batching succeeds: workers and tasks co-located, generous deadlines.
func TestGRBatchesMatchWithinWindows(t *testing.T) {
	in := &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Horizon:  10,
	}
	for i := 0; i < 5; i++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: i, Loc: geo.Pt(float64(i), 0), Arrive: 0.1, Patience: 10,
		})
		in.Tasks = append(in.Tasks, model.Task{
			ID: i, Loc: geo.Pt(float64(i), 0.5), Release: 0.2, Expiry: 5,
		})
	}
	eng := sim.NewEngine(in, sim.Strict)
	res := eng.Run(NewGR(1))
	if got := res.Matching.Size(); got != 5 {
		t.Errorf("GR = %d, want 5", got)
	}
	if err := res.Matching.Validate(in); err != nil {
		t.Error(err)
	}
}

// TestSimpleGreedyPrefersNearest checks the tie between two feasible
// workers goes to the closer one.
func TestSimpleGreedyPrefersNearest(t *testing.T) {
	in := &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Horizon:  10,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Arrive: 0, Patience: 10},
			{ID: 1, Loc: geo.Pt(2, 0), Arrive: 0, Patience: 10},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(3, 0), Release: 1, Expiry: 5},
		},
	}
	eng := sim.NewEngine(in, sim.Strict)
	res := eng.Run(NewSimpleGreedy())
	if res.Matching.Size() != 1 {
		t.Fatalf("size = %d", res.Matching.Size())
	}
	if res.Matching.Pairs[0].Worker != 1 {
		t.Errorf("matched worker %d, want nearest (1)", res.Matching.Pairs[0].Worker)
	}
}

// TestSimpleGreedyWorkerFindsWaitingTask covers the worker-arrival side:
// a task is already waiting when the worker appears.
func TestSimpleGreedyWorkerFindsWaitingTask(t *testing.T) {
	in := &model.Instance{
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 10, 10),
		Horizon:  10,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(1, 1), Arrive: 2, Patience: 10},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 2), Release: 0, Expiry: 5},
		},
	}
	eng := sim.NewEngine(in, sim.Strict)
	res := eng.Run(NewSimpleGreedy())
	if res.Matching.Size() != 1 {
		t.Errorf("size = %d, want 1", res.Matching.Size())
	}
}

// bruteForceOPT computes the maximum matching over all feasible pairs with
// Hopcroft–Karp on the full graph — exponential-free but O(W·T) edges, fine
// for tests.
func bruteForceOPT(in *model.Instance) int {
	adj := make([][]int32, len(in.Tasks))
	for t := range in.Tasks {
		for w := range in.Workers {
			if model.Feasible(&in.Workers[w], &in.Tasks[t], in.Velocity) {
				adj[t] = append(adj[t], int32(w))
			}
		}
	}
	size := 0
	matchW := make([]int, len(in.Workers))
	for i := range matchW {
		matchW[i] = -1
	}
	matchT := make([]int, len(in.Tasks))
	for i := range matchT {
		matchT[i] = -1
	}
	var try func(t int, seen []bool) bool
	try = func(t int, seen []bool) bool {
		for _, w := range adj[t] {
			if seen[w] {
				continue
			}
			seen[w] = true
			if matchW[w] == -1 || try(matchW[w], seen) {
				matchW[w] = t
				matchT[t] = int(w)
				return true
			}
		}
		return false
	}
	for t := range in.Tasks {
		seen := make([]bool, len(in.Workers))
		if try(t, seen) {
			size++
		}
	}
	return size
}
