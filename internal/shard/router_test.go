package shard

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// greedyAlg is a trivial nearest-scan algorithm for router tests: on task
// arrival, match the first available worker.
type greedyAlg struct{ p sim.Platform }

func (a *greedyAlg) Name() string         { return "test-greedy" }
func (a *greedyAlg) Init(p sim.Platform)  { a.p = p }
func (a *greedyAlg) OnFinish(now float64) {}
func (a *greedyAlg) OnWorkerArrival(w int, now float64) {
	for t := 0; t < a.p.NumTasks(); t++ {
		if a.p.TaskAvailable(t, now) && a.p.TryMatch(w, t, now) {
			return
		}
	}
}
func (a *greedyAlg) OnTaskArrival(t int, now float64) {
	for w := 0; w < a.p.NumWorkers(); w++ {
		if a.p.WorkerAvailable(w, now) && a.p.TryMatch(w, t, now) {
			return
		}
	}
}

func testConfig(cols, rows int) Config {
	return Config{
		Matcher: sim.MatcherConfig{
			Mode:     sim.Strict,
			Velocity: 1,
			Bounds:   geo.NewRect(0, 0, 100, 100),
		},
		Cols:         cols,
		Rows:         rows,
		NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} },
	}
}

func TestNewRouterValidates(t *testing.T) {
	bad := testConfig(0, 2)
	if _, err := NewRouter(bad); err == nil {
		t.Error("zero cols accepted")
	}
	bad = testConfig(2, 2)
	bad.NewAlgorithm = nil
	if _, err := NewRouter(bad); err == nil {
		t.Error("nil NewAlgorithm accepted")
	}
	bad = testConfig(2, 2)
	bad.Matcher.OnEvent = func(sim.SessionEvent) {}
	if _, err := NewRouter(bad); err == nil {
		t.Error("session-level OnEvent accepted")
	}
	bad = testConfig(2, 2)
	bad.Retention = -1
	if _, err := NewRouter(bad); err == nil {
		t.Error("negative retention accepted")
	}
	bad = testConfig(2, 2)
	bad.Matcher.Velocity = 0
	if _, err := NewRouter(bad); err == nil {
		t.Error("invalid matcher config accepted")
	}
	bad = testConfig(2, 2)
	bad.Matcher.Bounds = geo.Rect{} // degenerate bounds must error, not panic in grid construction
	if _, err := NewRouter(bad); err == nil {
		t.Error("empty bounds accepted")
	}
}

// TestNewRouterRefusesNaNHalo: a NaN halo slips past every "halo < 0"
// check and leaves Placement.Mirrors with no region to place an
// admission in, so the router refuses it at construction, and so does
// the placement itself. +Inf stays a valid (whole-area) reach.
func TestNewRouterRefusesNaNHalo(t *testing.T) {
	for _, tc := range []struct {
		halo float64
		ok   bool
	}{
		{math.NaN(), false},
		{-1, false},
		{math.Inf(-1), false},
		{0, true},
		{5, true},
		{math.Inf(1), true},
	} {
		cfg := testConfig(2, 2)
		cfg.Halo = tc.halo
		if _, err := NewRouter(cfg); (err == nil) != tc.ok {
			t.Errorf("halo %v: err = %v, want accepted=%v", tc.halo, err, tc.ok)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewPlacement(cfg.Matcher.Bounds, 2, 2, tc.halo)
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("NewPlacement halo %v: panicked=%v, want %v", tc.halo, panicked, !tc.ok)
		}
	}
}

// TestNewRouterRefusesShardIDOverflow: a base grid whose fully split
// topology would number regions past MaxInt32 is refused, since shard ids
// are 32-bit in the WAL, on the wire and in the event log. Acceptance is
// checked on the validating shell alone: building 512×512 sessions would
// cost the test hundreds of megabytes.
func TestNewRouterRefusesShardIDOverflow(t *testing.T) {
	for _, grid := range [][2]int{{1024, 1024}, {512, 1024}, {1 << 40, 1 << 40}} {
		_, err := NewRouter(testConfig(grid[0], grid[1]))
		if err == nil || !strings.Contains(err.Error(), "MaxInt32") {
			t.Errorf("%dx%d: err = %v, want a refusal naming MaxInt32", grid[0], grid[1], err)
		}
	}
	if _, err := newRouterShell(testConfig(512, 512)); err != nil {
		t.Errorf("512x512 (2^30 regions fully split) refused: %v", err)
	}
}

// TestRouterRoutesByLocation: admissions land on the shard whose region
// contains them, handles are shard-local, and matches stay region-local.
func TestRouterRoutesByLocation(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", r.NumShards())
	}
	// One worker-task pair per quadrant, plus an out-of-bounds worker
	// that must clamp to an edge region instead of being rejected.
	locs := []geo.Point{geo.Pt(20, 20), geo.Pt(80, 20), geo.Pt(20, 80), geo.Pt(80, 80)}
	for i, loc := range locs {
		wh, _, err := r.AddWorker(model.Worker{Loc: loc, Arrive: float64(i), Patience: 100})
		if err != nil {
			t.Fatal(err)
		}
		if wh.Shard != r.ShardOf(loc) || wh.Local != 0 {
			t.Fatalf("worker at %v -> %+v, want shard %d local 0", loc, wh, r.ShardOf(loc))
		}
		if !r.ShardBounds(wh.Shard).Contains(loc) {
			t.Fatalf("shard %d bounds %v do not contain %v", wh.Shard, r.ShardBounds(wh.Shard), loc)
		}
		th, _, err := r.AddTask(model.Task{Loc: loc.Add(geo.Pt(1, 0)), Release: float64(i), Expiry: 100})
		if err != nil {
			t.Fatal(err)
		}
		if th.Shard != wh.Shard {
			t.Fatalf("task routed to shard %d, worker to %d", th.Shard, wh.Shard)
		}
	}
	if h, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(-5, -5), Arrive: 9, Patience: 1}); err != nil {
		t.Fatalf("out-of-bounds admission rejected: %v", err)
	} else if h.Shard != 0 {
		t.Fatalf("out-of-bounds worker clamped to shard %d, want 0", h.Shard)
	}
	for i := 0; i < 4; i++ {
		st := r.ShardStats(i)
		if st.Matches != 1 {
			t.Fatalf("shard %d stats %+v, want exactly 1 region-local match", i, st)
		}
	}
}

// TestRouterSingleShardParity: a 1x1 router is exactly one session behind
// one lock — same matching as driving a session directly.
func TestRouterSingleShardParity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 150, 150
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mcfg := sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds}

	m, err := sim.NewMatcher(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := m.NewSession(&greedyAlg{})
	r, err := NewRouter(Config{Matcher: mcfg, Cols: 1, Rows: 1, NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} }})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in.Events() {
		switch ev.Kind {
		case model.WorkerArrival:
			if _, err := direct.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			if _, err := direct.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
	}
	direct.Finish()
	r.Finish()
	st := r.ShardStats(0)
	if st.Matches != direct.Matching().Size() || st.Matches == 0 {
		t.Fatalf("router matched %d, direct session %d", st.Matches, direct.Matching().Size())
	}
	if st.ExpiredWorkers != direct.ExpiredWorkers() || st.ExpiredTasks != direct.ExpiredTasks() {
		t.Fatalf("router expiries %d/%d, direct %d/%d",
			st.ExpiredWorkers, st.ExpiredTasks, direct.ExpiredWorkers(), direct.ExpiredTasks())
	}
}

// TestRouterEventsCursor: the merged stream is Seq-ordered, gap-free from
// 0, and the returned cursor resumes exactly after the last batch.
func TestRouterEventsCursor(t *testing.T) {
	r, err := NewRouter(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	add := func(x float64, at float64) {
		if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(x, 50), Arrive: at, Patience: 100}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(x, 51), Release: at, Expiry: 100}); err != nil {
			t.Fatal(err)
		}
	}
	add(10, 0) // shard 0 match
	add(90, 1) // shard 1 match

	evs, next, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || next != 2 {
		t.Fatalf("Events(0) = %v next %d, want 2 matches and cursor 2", evs, next)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Kind != sim.EventMatch {
			t.Fatalf("event %d = %+v, want seq %d match", i, ev, i)
		}
	}
	if evs[0].Shard == evs[1].Shard {
		t.Fatalf("both events on shard %d, want one per shard", evs[0].Shard)
	}

	// Incremental: nothing new at the cursor, then one more match.
	if tail, n2, err := r.Events(next, nil); err != nil || len(tail) != 0 || n2 != next {
		t.Fatalf("Events(%d) = %v next %d err %v, want empty", next, tail, n2, err)
	}
	add(30, 2)
	tail, n3, err := r.Events(next, nil)
	if err != nil || len(tail) != 1 || n3 != 3 {
		t.Fatalf("Events(%d) = %v next %d err %v, want the third match", next, tail, n3, err)
	}
	if r.Cursor() != 3 {
		t.Fatalf("Cursor() = %d, want 3", r.Cursor())
	}
}

// TestRouterRetention: the readable window is exactly the most recent
// Retention × Cols × Rows events at every step — also when one region
// emits all of them — and stale cursors fail with ErrEvicted.
func TestRouterRetention(t *testing.T) {
	for _, grid := range []int{1, 2} {
		cfg := testConfig(grid, grid)
		cfg.Retention = 3
		window := uint64(3 * grid * grid)
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const pairs = 20
		for i := 0; i < pairs; i++ {
			// Every pair lands in region 0 and matches on arrival.
			if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: float64(i), Patience: 100}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: float64(i), Expiry: 100}); err != nil {
				t.Fatal(err)
			}
			head := uint64(i + 1)
			oldest := uint64(0)
			if head > window {
				oldest = head - window
			}
			if r.OldestCursor() != oldest {
				t.Fatalf("%dx%d after %d events: OldestCursor = %d, want exactly head-window = %d", grid, grid, head, r.OldestCursor(), oldest)
			}
			evs, next, err := r.Events(oldest, nil)
			if err != nil || uint64(len(evs)) != head-oldest || next != head || evs[0].Seq != oldest {
				t.Fatalf("%dx%d Events(%d) = %d events next %d err %v, want [%d,%d)", grid, grid, oldest, len(evs), next, err, oldest, head)
			}
			if oldest > 0 {
				if _, _, err := r.Events(oldest-1, nil); err != ErrEvicted {
					t.Fatalf("%dx%d Events(%d) error = %v, want ErrEvicted", grid, grid, oldest-1, err)
				}
			}
		}
		// EventsFromOldest serves the same window without an error path.
		evs, next := r.EventsFromOldest(0, nil)
		if uint64(len(evs)) != window || next != pairs || evs[0].Seq != pairs-window {
			t.Fatalf("%dx%d EventsFromOldest = %d events from %d next %d, want the last %d", grid, grid, len(evs), evs[0].Seq, next, window)
		}
		// Every event here is a match, so the match window is the same one.
		ms, mnext, err := r.Matches(pairs-window, 0, nil)
		if err != nil || !reflect.DeepEqual(ms, evs) || mnext != pairs {
			t.Fatalf("%dx%d Matches(%d) = %d next %d err %v, want the events' window", grid, grid, pairs-window, len(ms), mnext, err)
		}
		if _, _, err := r.Matches(pairs-window-1, 0, nil); err != ErrEvicted {
			t.Fatalf("%dx%d Matches below the window: error = %v, want ErrEvicted", grid, grid, err)
		}
	}
}

// TestRouterConcurrentSmoke hammers a 2x2 router from concurrent
// producers and a polling consumer; run under -race this is the shard
// concurrency gate. Afterwards the merged stream must be seq-unique and
// complete relative to per-shard stats.
func TestRouterConcurrentSmoke(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 300, 300
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{
		Matcher:      sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
		Cols:         2,
		Rows:         2,
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
	// Concurrent consumer: poll the merged stream while producers run.
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
			case <-time.After(time.Millisecond):
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
	matches := 0
	for i, ev := range evs {
		if seqs[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seqs[ev.Seq] = true
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("merged stream out of order at %d", i)
		}
		if ev.Kind == sim.EventMatch {
			matches++
		}
	}
	var workers, tasks, statMatches int
	for _, st := range r.StatsAll(nil) {
		workers += st.Workers
		tasks += st.Tasks
		statMatches += st.Matches
	}
	if workers != 300 || tasks != 300 {
		t.Fatalf("admitted %d workers / %d tasks, want 300/300", workers, tasks)
	}
	if matches != statMatches || matches == 0 {
		t.Fatalf("stream has %d matches, stats say %d", matches, statMatches)
	}
	if !sort.SliceIsSorted(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq }) {
		t.Fatal("merged stream not seq-sorted")
	}
}

// TestRouterEventsLimitPaging: a bounded page returns the lowest sequence
// numbers and a resume cursor right after them, so a cold consumer pages
// through the backlog gap-free.
func TestRouterEventsLimitPaging(t *testing.T) {
	r, err := NewRouter(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x := 10.0 + 80*float64(i%2) // alternate shards
		if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(x, 50), Arrive: float64(i), Patience: 100}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(x, 51), Release: float64(i), Expiry: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// 3 matches; page size 2 -> first page seqs 0,1 with resume cursor 2.
	var cursor uint64
	var collected []uint64
	for {
		evs, next, err := r.EventsLimit(cursor, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) > 2 {
			t.Fatalf("page of %d events exceeds limit 2", len(evs))
		}
		for _, ev := range evs {
			collected = append(collected, ev.Seq)
		}
		if next == cursor {
			break
		}
		cursor = next
	}
	if len(collected) != 3 {
		t.Fatalf("paged %v, want all 3 seqs", collected)
	}
	for i, seq := range collected {
		if seq != uint64(i) {
			t.Fatalf("paged %v, want in-order gap-free 0..2", collected)
		}
	}
}
