package ftoa_test

import (
	"testing"

	"ftoa"
)

// TestFacadeEndToEnd exercises the complete public API surface the way the
// package documentation advertises it: generate, predict, build a guide,
// replay every algorithm, compare with OPT.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 1200, 1200
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}

	grid := ftoa.NewGrid(cfg.Bounds(), 12, 12)
	slots := ftoa.NewSlotting(cfg.Horizon, 48)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	g, err := ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
	}, wc, tc)
	if err != nil {
		t.Fatal(err)
	}

	eng := ftoa.NewEngine(in, ftoa.AssumeGuide)
	greedy := eng.Run(ftoa.NewSimpleGreedy()).Matching.Size()
	gr := eng.Run(ftoa.NewGR(0.25)).Matching.Size()
	polar := eng.Run(ftoa.NewPOLAR(g)).Matching.Size()
	polarOp := eng.Run(ftoa.NewPOLAROP(g)).Matching.Size()
	opt := ftoa.OPT(in, ftoa.OPTOptions{}).Size()

	if opt == 0 {
		t.Fatal("OPT found nothing; instance generation broken")
	}
	for name, size := range map[string]int{
		"SimpleGreedy": greedy, "GR": gr, "POLAR": polar, "POLAR-OP": polarOp,
	} {
		if size <= 0 {
			t.Errorf("%s matched nothing", name)
		}
	}
	if polarOp < polar {
		t.Errorf("POLAR-OP (%d) below POLAR (%d)", polarOp, polar)
	}
	// On the hotspot-separated default workload, guidance must beat
	// waiting in place (the paper's headline claim).
	if polarOp <= greedy {
		t.Errorf("POLAR-OP (%d) did not beat SimpleGreedy (%d)", polarOp, greedy)
	}
}

// TestFacadePrediction exercises the prediction API surface.
func TestFacadePrediction(t *testing.T) {
	city := ftoa.Beijing()
	city.Days = 8
	city.WorkersPerDay = 600
	city.TasksPerDay = 600
	city.Cols, city.Rows = 5, 7
	city.SlotsPerDay = 24
	tr, err := city.Generate()
	if err != nil {
		t.Fatal(err)
	}
	days := city.Days
	areas := tr.Grid.NumCells()
	counts := make([]int, 0, days*city.SlotsPerDay*areas)
	weather := make([]float64, 0, days*city.SlotsPerDay)
	for d := 0; d < days; d++ {
		counts = append(counts, tr.TaskCounts[d]...)
		weather = append(weather, tr.Weather[d]...)
	}
	s, err := ftoa.NewSeries(days, city.SlotsPerDay, areas, counts, weather, tr.DayOfWeek)
	if err != nil {
		t.Fatal(err)
	}
	p := ftoa.NewHPMSI()
	if err := p.Fit(s, days-1); err != nil {
		t.Fatal(err)
	}
	pred := ftoa.PredictDay(p, s, days-1)
	if len(pred) != city.SlotsPerDay*areas {
		t.Fatalf("prediction length %d", len(pred))
	}
	cnts := ftoa.ToCounts(pred)
	total := 0
	for _, c := range cnts {
		if c < 0 {
			t.Fatal("negative predicted count")
		}
		total += c
	}
	if total == 0 {
		t.Error("prediction totally empty")
	}
	er := ftoa.ErrorRate(pred, pred, city.SlotsPerDay, areas)
	if er != 0 {
		t.Errorf("self-ER = %v", er)
	}
	if ftoa.RMSLE(pred, pred, city.SlotsPerDay, areas) != 0 {
		t.Error("self-RMSLE nonzero")
	}
}

// TestFacadeModel covers the model helpers.
func TestFacadeModel(t *testing.T) {
	w := ftoa.Worker{ID: 1, Loc: ftoa.Pt(0, 0), Arrive: 0, Patience: 10}
	r := ftoa.Task{ID: 1, Loc: ftoa.Pt(3, 4), Release: 1, Expiry: 5}
	if !ftoa.Feasible(&w, &r, 1) {
		t.Error("pair should be feasible (travel 5 ≤ deadline 6)")
	}
	if ftoa.Feasible(&w, &r, 0.5) {
		t.Error("pair should be infeasible at half speed")
	}
	rect := ftoa.NewRect(0, 0, 10, 10)
	grid := ftoa.NewGrid(rect, 5, 5)
	if grid.NumCells() != 25 {
		t.Error("grid cells")
	}
}

// TestFacadeStreaming exercises the open-world surface exactly as the
// package documentation advertises it: a Matcher session fed live
// arrivals, matches surfacing through both OnEvent and DrainEvents.
func TestFacadeStreaming(t *testing.T) {
	var fromCallback []ftoa.SessionEvent
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.Strict,
		Velocity: 1,
		Bounds:   ftoa.NewRect(0, 0, 100, 100),
		OnEvent: func(ev ftoa.SessionEvent) {
			if ev.Kind == ftoa.EventMatch {
				fromCallback = append(fromCallback, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(ftoa.NewSimpleGreedy())
	w, err := sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(10, 10), Arrive: 0, Patience: 300})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.AddTask(ftoa.Task{Loc: ftoa.Pt(11, 10), Release: 5, Expiry: 60})
	if err != nil {
		t.Fatal(err)
	}
	got := sess.DrainEvents(nil)
	if len(got) != 1 || got[0].Kind != ftoa.EventMatch || got[0].Worker != w || got[0].Task != r {
		t.Fatalf("DrainEvents = %v, want the (w,r) match", got)
	}
	if len(fromCallback) != 1 || fromCallback[0] != got[0] {
		t.Fatalf("OnEvent = %v, want %v", fromCallback, got)
	}
	sess.Finish()
	if _, err := sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(1, 1), Arrive: 9, Patience: 1}); err == nil {
		t.Error("AddWorker after Finish must fail")
	}
}

// TestFacadeLifecycleAndSharding exercises the event-stream and sharded
// serving surface through the facade: typed lifecycle events (commit and
// expiry) from a session, and a 2x2 ShardRouter merging per-region
// streams behind a cursor.
func TestFacadeLifecycleAndSharding(t *testing.T) {
	var kinds []ftoa.SessionEventKind
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.Strict,
		Velocity: 1,
		Bounds:   ftoa.NewRect(0, 0, 100, 100),
		OnEvent:  func(ev ftoa.SessionEvent) { kinds = append(kinds, ev.Kind) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(ftoa.NewSimpleGreedy())
	if _, err := sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(10, 10), Arrive: 0, Patience: 300}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddTask(ftoa.Task{Loc: ftoa.Pt(11, 10), Release: 5, Expiry: 60}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(90, 90), Arrive: 6, Patience: 1}); err != nil {
		t.Fatal(err)
	}
	sess.Advance(100)
	evs := sess.DrainEvents(nil)
	if len(evs) != 2 || evs[0].Kind != ftoa.EventMatch || evs[1].Kind != ftoa.EventWorkerExpired {
		t.Fatalf("DrainEvents = %v, want a match then a worker expiry", evs)
	}
	if sess.ExpiredWorkers() != 1 {
		t.Fatalf("ExpiredWorkers = %d, want 1", sess.ExpiredWorkers())
	}
	if len(kinds) != 2 {
		t.Fatalf("OnEvent kinds = %v", kinds)
	}

	router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     ftoa.Strict,
			Velocity: 1,
			Bounds:   ftoa.NewRect(0, 0, 100, 100),
		},
		Cols:         2,
		Rows:         2,
		NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []ftoa.Point{ftoa.Pt(20, 20), ftoa.Pt(80, 20), ftoa.Pt(20, 80), ftoa.Pt(80, 80)} {
		if _, _, err := router.AddWorker(ftoa.Worker{Loc: q, Arrive: 0, Patience: 300}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := router.AddTask(ftoa.Task{Loc: q.Add(ftoa.Pt(1, 0)), Release: 1, Expiry: 60}); err != nil {
			t.Fatal(err)
		}
	}
	merged, next, err := router.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 4 || next != 4 {
		t.Fatalf("merged = %v next %d, want 4 matches", merged, next)
	}
	shards := map[int]bool{}
	for _, ev := range merged {
		if ev.Kind != ftoa.EventMatch {
			t.Fatalf("unexpected event %v", ev)
		}
		shards[ev.Shard] = true
	}
	if len(shards) != 4 {
		t.Fatalf("matches on shards %v, want all 4 regions", shards)
	}
}
