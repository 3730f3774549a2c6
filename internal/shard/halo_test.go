package shard

import (
	"fmt"
	"sync"
	"testing"

	"ftoa/internal/core"
	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
	"ftoa/internal/workload"
)

// haloGuide builds a learned-shape guide over the synthetic workload for
// the guided algorithms (POLAR / POLAR-OP / Hybrid).
func haloGuide(t testing.TB, cfg workload.Synthetic) *guide.Guide {
	t.Helper()
	grid := geo.NewGrid(cfg.Bounds(), 8, 8)
	slots := timeslot.New(cfg.Horizon, 12)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	g, err := guide.Build(guide.Config{
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
	return g
}

// haloAlgorithms is the full algorithm matrix the halo invariants must
// hold for.
func haloAlgorithms(t testing.TB, cfg workload.Synthetic) []struct {
	name string
	mk   func() sim.Algorithm
} {
	g := haloGuide(t, cfg)
	return []struct {
		name string
		mk   func() sim.Algorithm
	}{
		{"POLAR", func() sim.Algorithm { return core.NewPOLAR(g) }},
		{"POLAR-OP", func() sim.Algorithm { return core.NewPOLAROP(g) }},
		{"SimpleGreedy", func() sim.Algorithm { return core.NewSimpleGreedy() }},
		{"GR", func() sim.Algorithm { return core.NewGR(cfg.Horizon / 40) }},
		{"Hybrid", func() sim.Algorithm { return core.NewHybrid(g) }},
		{"TGOA", func() sim.Algorithm { return core.NewTGOA() }},
	}
}

// assertNoDoubleMatch walks a merged event stream and fails if any
// logical object — identified by its owner (shard, handle) home address —
// appears in more than one committed match, or expires more than once.
// It returns the number of match events seen.
func assertNoDoubleMatch(t *testing.T, evs []Event) int {
	t.Helper()
	type id struct {
		shard, local int
	}
	matchedW := map[id]bool{}
	matchedT := map[id]bool{}
	expiredW := map[id]bool{}
	expiredT := map[id]bool{}
	matches := 0
	for _, ev := range evs {
		switch ev.Kind {
		case sim.EventMatch:
			matches++
			w := id{ev.WorkerShard, ev.Worker}
			tk := id{ev.TaskShard, ev.Task}
			if matchedW[w] {
				t.Fatalf("worker %v committed twice (seq %d)", w, ev.Seq)
			}
			if matchedT[tk] {
				t.Fatalf("task %v committed twice (seq %d)", tk, ev.Seq)
			}
			matchedW[w] = true
			matchedT[tk] = true
		case sim.EventWorkerExpired:
			w := id{ev.WorkerShard, ev.Worker}
			if expiredW[w] {
				t.Fatalf("worker %v expired twice (seq %d)", w, ev.Seq)
			}
			expiredW[w] = true
		case sim.EventTaskExpired:
			tk := id{ev.TaskShard, ev.Task}
			if expiredT[tk] {
				t.Fatalf("task %v expired twice (seq %d)", tk, ev.Seq)
			}
			expiredT[tk] = true
		}
	}
	return matches
}

// routerReplay drives a recorded instance through a router sequentially
// and returns the full merged event stream plus the summed shard stats.
func routerReplay(t *testing.T, r *Router, in *model.Instance) ([]Event, []Stats) {
	t.Helper()
	for _, ev := range in.Events() {
		var err error
		switch ev.Kind {
		case model.WorkerArrival:
			_, _, err = r.AddWorker(in.Workers[ev.Index])
		case model.TaskArrival:
			_, _, err = r.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	r.Finish()
	evs, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return evs, r.StatsAll(nil)
}

// TestRouterHaloNoDoubleMatch is the cross-shard matching invariant, the
// deterministic half: for all six algorithms × both modes, a 4×4 router
// with halo mirroring must commit every logical object at most once
// across all shards (and report each expiry at most once), with the
// merged stream's match count agreeing with the per-shard stats.
func TestRouterHaloNoDoubleMatch(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 400, 400
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	halo := HaloForWindow(cfg.Velocity, cfg.TaskExpiry)
	for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
		for _, a := range haloAlgorithms(t, cfg) {
			t.Run(fmt.Sprintf("%s/%s", a.name, mode), func(t *testing.T) {
				r, err := NewRouter(Config{
					Matcher: sim.MatcherConfig{
						Mode:     mode,
						Velocity: in.Velocity,
						Bounds:   in.Bounds,
						Hints: sim.Hints{
							ExpectedWorkers: len(in.Workers),
							ExpectedTasks:   len(in.Tasks),
							Horizon:         in.Horizon,
						},
					},
					Cols:         4,
					Rows:         4,
					Halo:         halo,
					NewAlgorithm: a.mk,
				})
				if err != nil {
					t.Fatal(err)
				}
				evs, stats := routerReplay(t, r, in)
				matches := assertNoDoubleMatch(t, evs)
				var statMatches, ghosts, withdrawn int
				for _, st := range stats {
					statMatches += st.Matches
					ghosts += st.GhostWorkers + st.GhostTasks
					withdrawn += st.WithdrawnWorkers + st.WithdrawnTasks
					if st.ExpiredWorkers < 0 || st.ExpiredTasks < 0 {
						t.Fatalf("shard %d negative corrected expiries: %+v", st.Shard, st)
					}
				}
				if matches != statMatches || matches == 0 {
					t.Fatalf("stream has %d matches, stats say %d", matches, statMatches)
				}
				if ghosts == 0 {
					t.Fatal("no ghosts admitted; halo path not exercised")
				}
				if withdrawn == 0 {
					t.Fatal("no copies withdrawn; retraction path not exercised")
				}
			})
		}
	}
}

// TestRouterHaloRecoversBorderQuality: the point of the whole machinery —
// with the natural halo width, the 4×4 sharded matched size must be well
// above the disjoint router's and close to the unsharded session's. The
// hard ≥90% acceptance gate lives in the root package's quality test at
// the benchmark scale; this is the same property at test scale.
func TestRouterHaloRecoversBorderQuality(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 500, 500
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mcfg := sim.MatcherConfig{
		Mode:     sim.AssumeGuide,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		Hints: sim.Hints{
			ExpectedWorkers: len(in.Workers),
			ExpectedTasks:   len(in.Tasks),
			Horizon:         in.Horizon,
		},
	}
	run := func(halo float64) int {
		r, err := NewRouter(Config{
			Matcher:      mcfg,
			Cols:         4,
			Rows:         4,
			Halo:         halo,
			NewAlgorithm: func() sim.Algorithm { return core.NewSimpleGreedy() },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, stats := routerReplay(t, r, in)
		total := 0
		for _, st := range stats {
			total += st.Matches
		}
		return total
	}

	// Unsharded reference: one session over the full area.
	m, err := sim.NewMatcher(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(core.NewSimpleGreedy())
	for _, ev := range in.Events() {
		switch ev.Kind {
		case model.WorkerArrival:
			_, err = sess.AddWorker(in.Workers[ev.Index])
		case model.TaskArrival:
			_, err = sess.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sess.Finish()
	unsharded := sess.Matches()

	disjoint := run(0)
	haloed := run(HaloForWindow(cfg.Velocity, cfg.TaskExpiry))
	t.Logf("matched: unsharded %d, 4x4 disjoint %d, 4x4 halo %d", unsharded, disjoint, haloed)
	if haloed <= disjoint {
		t.Fatalf("halo did not improve border matching: disjoint %d, halo %d", disjoint, haloed)
	}
	if haloed*10 < unsharded*9 {
		t.Fatalf("halo recovered %d of %d unsharded matches, below the 90%% bar", haloed, unsharded)
	}
}

// TestRouterHaloConcurrentSmoke is the concurrent half of the invariant:
// hammer a halo-enabled 2×2 router from parallel producers (ghost
// admissions, claims, retractions racing) plus a polling consumer, then
// assert the merged stream is seq-unique, stats-consistent, and free of
// double matches. Run under -race in CI.
func TestRouterHaloConcurrentSmoke(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 300, 300
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{
		Matcher: sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
		Cols:    2,
		Rows:    2,
		Halo:    HaloForWindow(cfg.Velocity, cfg.TaskExpiry),
		// The scan greedy maximises cross-shard contention: every arrival
		// probes every waiting object, ghosts included.
		NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} },
	})
	if err != nil {
		t.Fatal(err)
	}

	events := in.Events()
	var wg sync.WaitGroup
	const producers = 4
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(events); i += producers {
				ev := events[i]
				switch ev.Kind {
				case model.WorkerArrival:
					if _, _, err := r.AddWorker(in.Workers[ev.Index]); err != nil {
						t.Error(err)
						return
					}
				case model.TaskArrival:
					if _, _, err := r.AddTask(in.Tasks[ev.Index]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		var cursor uint64
		var buf []Event
		for {
			var err error
			buf, cursor, err = r.Events(cursor, buf[:0])
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	consumer.Wait()
	r.Finish()

	evs, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if seqs[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seqs[ev.Seq] = true
	}
	matches := assertNoDoubleMatch(t, evs)
	var statMatches, ghosts int
	for _, st := range r.StatsAll(nil) {
		statMatches += st.Matches
		ghosts += st.GhostWorkers + st.GhostTasks
	}
	if matches != statMatches || matches == 0 {
		t.Fatalf("stream has %d matches, stats say %d", matches, statMatches)
	}
	if ghosts == 0 {
		t.Fatal("no ghosts admitted; halo path not exercised")
	}
}

// TestRouterHaloRetirement: ghost handle tables must survive arena
// retirement — a router with an aggressive RetireInterval and halo
// mirroring keeps the invariant and keeps resolving retractions after
// every shard has compacted several epochs.
func TestRouterHaloRetirement(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 400, 400
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{
		Matcher:        sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
		Cols:           2,
		Rows:           2,
		Halo:           HaloForWindow(cfg.Velocity, cfg.TaskExpiry),
		NewAlgorithm:   func() sim.Algorithm { return core.NewSimpleGreedy() },
		RetireInterval: cfg.Horizon / 24, // many epochs across the day
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, stats := routerReplay(t, r, in)
	// Handles are admission receipts and get reused across retirement
	// epochs, so event-level (shard, handle) identities alias here; the
	// at-most-one-commit guarantee is keyed by the records' unique gids
	// (exercised by the non-retiring invariant tests). What must hold
	// regardless: the stream and stats agree, commits never exceed the
	// logical population, and ghosts flowed and were retracted.
	var matches int
	for _, ev := range evs {
		if ev.Kind == sim.EventMatch {
			matches++
		}
	}
	var statMatches, ghosts, withdrawn int
	var epochs uint64
	for i, st := range stats {
		statMatches += st.Matches
		ghosts += st.GhostWorkers + st.GhostTasks
		withdrawn += st.WithdrawnWorkers + st.WithdrawnTasks
		epochs += r.state().shards[i].sess.Epoch()
	}
	if matches != statMatches || matches == 0 {
		t.Fatalf("stream has %d matches, stats say %d", matches, statMatches)
	}
	if matches > cfg.NumWorkers {
		t.Fatalf("%d matches exceed the %d logical workers — a copy committed twice", matches, cfg.NumWorkers)
	}
	if ghosts == 0 || withdrawn == 0 {
		t.Fatalf("halo path not exercised under retirement: %d ghosts, %d withdrawn", ghosts, withdrawn)
	}
	if epochs == 0 {
		t.Fatal("no retirements happened; interval too long for the instance")
	}
	// Every halo table entry must point at a live, correctly-typed arena
	// slot after all the compaction.
	for _, si := range r.state().shards {
		for gid, h := range si.halo.byGid[workerSide] {
			if int(h) >= si.sess.NumWorkers() {
				t.Fatalf("shard %d: gid %d maps to worker %d beyond live arena %d", si.id, gid, h, si.sess.NumWorkers())
			}
			if refAt(si.halo.ref[workerSide], int(h)) == nil {
				t.Fatalf("shard %d: gid %d handle %d has no ref", si.id, gid, h)
			}
		}
		for gid, h := range si.halo.byGid[taskSide] {
			if int(h) >= si.sess.NumTasks() {
				t.Fatalf("shard %d: gid %d maps to task %d beyond live arena %d", si.id, gid, h, si.sess.NumTasks())
			}
			if refAt(si.halo.ref[taskSide], int(h)) == nil {
				t.Fatalf("shard %d: gid %d handle %d has no ref", si.id, gid, h)
			}
		}
	}
}

// TestRouterHaloRetirementReleasesBurst: a burst of border admissions
// sizes every shard's halo tables, and once it has died the tables (and
// the gid maps beside them) are reallocated down with the session arenas —
// resolving exactly the copies they resolved before, so the router's
// stream and counters are those of a router that never retires, and so
// never reallocates anything.
func TestRouterHaloRetirementReleasesBurst(t *testing.T) {
	const burst, trickle = 24000, 1200
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = (burst+trickle)/2, (burst+trickle)/2
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) float64 {
		if i < burst/2 {
			return cfg.Horizon / 40 * float64(i) / float64(burst/2)
		}
		return cfg.Horizon/4 + cfg.Horizon*3/4*float64(i-burst/2)/float64(trickle/2)
	}
	for i := range in.Workers {
		in.Workers[i].Arrive = at(i)
	}
	for i := range in.Tasks {
		in.Tasks[i].Release = at(i)
	}
	mk := func(retire float64) *Router {
		r, err := NewRouter(Config{
			Matcher: sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
			Cols:    2,
			Rows:    1,
			// Wider than a region: every admission is mirrored.
			Halo:           cfg.Space,
			NewAlgorithm:   func() sim.Algorithm { return core.NewSimpleGreedy() },
			RetireInterval: retire,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, retiring := mk(0), mk(cfg.Horizon/24)
	wantEvs, wantStats := routerReplay(t, plain, in)
	// The retiring router is fed by hand so the tables can be watched.
	var peak, final int
	for _, ev := range in.Events() {
		var err error
		if ev.Kind == model.WorkerArrival {
			_, _, err = retiring.AddWorker(in.Workers[ev.Index])
		} else {
			_, _, err = retiring.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			t.Fatal(err)
		}
		final = cap(retiring.state().shards[0].halo.ref[workerSide])
		peak = max(peak, final)
	}
	retiring.Finish()
	gotEvs := allEvents(t, retiring)
	gotStats := retiring.StatsAll(nil)
	if peak < burst/4 || final >= peak/2 {
		t.Fatalf("shard 0 worker ref table: capacity %d at the burst, %d at the end", peak, final)
	}

	// Handles are epoch-scoped receipts, so events are compared on what
	// happened when, between which shards.
	key := func(ev Event) [5]float64 {
		return [5]float64{float64(ev.Seq), float64(ev.Kind), ev.Time, float64(ev.WorkerShard), float64(ev.TaskShard)}
	}
	if len(gotEvs) != len(wantEvs) {
		t.Fatalf("retiring router emitted %d events, plain %d", len(gotEvs), len(wantEvs))
	}
	for i := range wantEvs {
		if key(gotEvs[i]) != key(wantEvs[i]) {
			t.Fatalf("event %d: retiring %+v, plain %+v", i, gotEvs[i], wantEvs[i])
		}
	}
	for i := range wantStats {
		g, w := gotStats[i], wantStats[i]
		g.LiveWorkers, g.LiveTasks, w.LiveWorkers, w.LiveTasks = 0, 0, 0, 0
		// A retraction that finds its copy already retired has nothing
		// left to withdraw, so only the retiring router's count is short.
		g.WithdrawnWorkers, g.WithdrawnTasks, w.WithdrawnWorkers, w.WithdrawnTasks = 0, 0, 0, 0
		if g != w {
			t.Fatalf("shard %d stats: retiring %+v, plain %+v", i, g, w)
		}
	}
	for _, si := range retiring.state().shards {
		for h, rec := range si.halo.ref[workerSide] {
			if rec != nil && (h >= si.sess.NumWorkers() || si.halo.byGid[workerSide][rec.gid] != int32(h)) {
				t.Fatalf("shard %d: worker ref %d (gid %d) does not resolve back through the gid map", si.id, h, rec.gid)
			}
		}
		for gid, h := range si.halo.byGid[workerSide] {
			if rec := refAt(si.halo.ref[workerSide], int(h)); rec == nil || rec.gid != gid {
				t.Fatalf("shard %d: gid %d maps to worker %d, which holds %+v", si.id, gid, h, rec)
			}
		}
		for gid, h := range si.halo.byGid[taskSide] {
			if rec := refAt(si.halo.ref[taskSide], int(h)); rec == nil || rec.gid != gid {
				t.Fatalf("shard %d: gid %d maps to task %d, which holds %+v", si.id, gid, h, rec)
			}
		}
	}
}
