package sim

import (
	"math"
	"slices"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// retirableScript is scriptAlg plus a Remap hook, recording every remap
// table it receives so tests can assert on them.
type retirableScript struct {
	scriptAlg
	remaps  int
	onRemap func(w, t []int32)
}

func (r *retirableScript) Remap(w, t []int32) {
	r.remaps++
	if r.onRemap != nil {
		r.onRemap(w, t)
	}
}

// retireSession opens a Strict session over a 100x100 area driven by a
// retirable no-op script.
func retireSession(t *testing.T, mode Mode, alg Algorithm) *Session {
	t.Helper()
	m, err := NewMatcher(MatcherConfig{Mode: mode, Velocity: 1, Bounds: geo.NewRect(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	return m.NewSession(alg)
}

// TestRetireDropsDeadCompactsSurvivors is the basic contract: matched and
// (Strict) expired objects vanish, survivors keep their relative order
// under new dense handles, and the bookkeeping (epoch, retired counts,
// admitted totals, lifetime match count) adds up.
func TestRetireDropsDeadCompactsSurvivors(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)

	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 5})         // will expire at 5
	w1 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 100}) // will be matched
	w2 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(3, 3), Arrive: 0, Patience: 100}) // survives
	t0 := mustAddTask(t, s, model.Task{Loc: geo.Pt(2, 2), Release: 1, Expiry: 100})      // matched with w1
	mustAddTask(t, s, model.Task{Loc: geo.Pt(9, 9), Release: 1, Expiry: 2})              // expires at 3
	mustAddTask(t, s, model.Task{Loc: geo.Pt(8, 8), Release: 1, Expiry: 100})            // survives
	if !s.TryMatch(w1, t0, 2) {
		t.Fatal("seed match refused")
	}
	s.Advance(10) // fires w0's and t1's expiries

	var gotW, gotT []int32
	alg.onRemap = func(wm, tm []int32) {
		gotW = append(gotW[:0], wm...)
		gotT = append(gotT[:0], tm...)
	}
	dw, dt := s.Retire(s.Now())
	if dw != 2 || dt != 2 {
		t.Fatalf("Retire dropped %d workers, %d tasks; want 2, 2", dw, dt)
	}
	if alg.remaps != 1 {
		t.Fatalf("Remap called %d times, want 1", alg.remaps)
	}
	wantW := []int32{-1, -1, 0}
	wantT := []int32{-1, -1, 0}
	for i := range wantW {
		if gotW[i] != wantW[i] {
			t.Fatalf("worker map = %v, want %v", gotW, wantW)
		}
	}
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("task map = %v, want %v", gotT, wantT)
		}
	}
	if s.NumWorkers() != 1 || s.NumTasks() != 1 {
		t.Fatalf("live arenas %d/%d, want 1/1", s.NumWorkers(), s.NumTasks())
	}
	if s.Worker(0).Loc != geo.Pt(3, 3) {
		t.Fatalf("surviving worker = %+v, want the one admitted at (3,3) (old handle %d)", s.Worker(0), w2)
	}
	if s.Task(0).Loc != geo.Pt(8, 8) {
		t.Fatalf("surviving task = %+v, want the one at (8,8)", s.Task(0))
	}
	if s.Epoch() != 1 {
		t.Fatalf("Epoch = %d, want 1", s.Epoch())
	}
	if s.RetiredWorkers() != 2 || s.RetiredTasks() != 2 {
		t.Fatalf("retired counters %d/%d, want 2/2", s.RetiredWorkers(), s.RetiredTasks())
	}
	if s.AdmittedWorkers() != 3 || s.AdmittedTasks() != 3 {
		t.Fatalf("admitted %d/%d, want 3/3", s.AdmittedWorkers(), s.AdmittedTasks())
	}
	if s.Matches() != 1 {
		t.Fatalf("Matches = %d, want 1 across the epoch boundary", s.Matches())
	}
	if s.Matching().Size() != 0 {
		t.Fatalf("Matching has %d pairs after both endpoints retired, want 0", s.Matching().Size())
	}
	// The survivors are still matchable with each other under new handles.
	if !s.TryMatch(0, 0, s.Now()) {
		t.Fatal("surviving pair refused after retirement")
	}
}

// TestRetireAssumeGuideKeepsUnmatched: in AssumeGuide mode deadlines are
// not enforced, so only matched objects may retire — an expired-unmatched
// object can still be matched later and must survive.
func TestRetireAssumeGuideKeepsUnmatched(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, AssumeGuide, alg)
	w0 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 1}) // expires at 1, stays
	w1 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 1})
	t0 := mustAddTask(t, s, model.Task{Loc: geo.Pt(2, 2), Release: 0, Expiry: 1})
	if !s.TryMatch(w1, t0, 0) {
		t.Fatal("match refused")
	}
	s.Advance(50)
	dw, dt := s.Retire(s.Now())
	if dw != 1 || dt != 1 {
		t.Fatalf("Retire dropped %d/%d, want the matched pair only (1/1)", dw, dt)
	}
	if s.NumWorkers() != 1 {
		t.Fatalf("live workers %d, want 1 (expired-unmatched stays matchable)", s.NumWorkers())
	}
	// The survivor (old w0, now handle 0) is still assignable, per the
	// paper's counting assumption.
	t1 := mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 1), Release: 50, Expiry: 1})
	if !s.TryMatch(0, t1, s.Now()) {
		t.Fatal("expired-but-unmatched worker should still match in AssumeGuide mode")
	}
	_ = w0
}

// TestRetireNonRetirableAlgorithmIsNoop: without a Remap hook the session
// must refuse to invalidate the algorithm's handles.
func TestRetireNonRetirableAlgorithmIsNoop(t *testing.T) {
	s := retireSession(t, Strict, &scriptAlg{name: "plain"})
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 1})
	s.Advance(10)
	if dw, dt := s.Retire(s.Now()); dw != 0 || dt != 0 {
		t.Fatalf("Retire on a non-retirable algorithm dropped %d/%d, want 0/0", dw, dt)
	}
	if s.NumWorkers() != 1 || s.Epoch() != 0 {
		t.Fatalf("arena %d / epoch %d changed under a non-retirable algorithm", s.NumWorkers(), s.Epoch())
	}
}

// TestRetireGraceHorizon: objects dead after the horizon survive the
// compaction — the grace window external views rely on.
func TestRetireGraceHorizon(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)
	w0 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 100})
	w1 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 100})
	t0 := mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 1), Release: 0, Expiry: 100})
	t1 := mustAddTask(t, s, model.Task{Loc: geo.Pt(2, 2), Release: 0, Expiry: 100})
	if !s.TryMatch(w0, t0, 1) || !s.TryMatch(w1, t1, 5) {
		t.Fatal("seed matches refused")
	}
	s.Advance(10)
	if dw, dt := s.Retire(3); dw != 1 || dt != 1 {
		t.Fatalf("Retire(3) dropped %d/%d, want only the pair matched at 1", dw, dt)
	}
	// The pair matched at 5 survived and Matching still reports it, under
	// its new handles.
	if got := s.Matching().Size(); got != 1 {
		t.Fatalf("Matching size %d, want 1", got)
	}
	p := s.Matching().Pairs[0]
	if p.Worker != 0 || p.Task != 0 {
		t.Fatalf("surviving pair %+v, want remapped (0,0)", p)
	}
	if s.Matches() != 2 {
		t.Fatalf("Matches = %d, want 2", s.Matches())
	}
}

// TestRetireRebasesPendingExpiries: a surviving object's queued deadline
// must still fire, under its new handle; a retired matched object's
// pending deadline must not fire at all.
func TestRetireRebasesPendingExpiries(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)
	w0 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 50}) // matched below; deadline 50 pending
	w1 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 60}) // survives; expires at 60
	t0 := mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 1), Release: 0, Expiry: 100})
	if !s.TryMatch(w0, t0, 1) {
		t.Fatal("match refused")
	}
	s.Advance(2)
	if dw, _ := s.Retire(s.Now()); dw != 1 {
		t.Fatalf("retired %d workers, want 1", dw)
	}
	s.DrainEvents(nil) // discard the match event
	s.Advance(100)     // past both original deadlines
	evs := s.DrainEvents(nil)
	if len(evs) != 1 {
		t.Fatalf("events after retirement = %+v, want exactly w1's expiry", evs)
	}
	if evs[0].Kind != EventWorkerExpired || evs[0].Worker != 0 || evs[0].Time != 60 {
		t.Fatalf("expiry = %+v, want worker-expired handle 0 (old %d) at 60", evs[0], w1)
	}
	if s.ExpiredWorkers() != 1 {
		t.Fatalf("ExpiredWorkers = %d, want 1", s.ExpiredWorkers())
	}
}

// TestRetireRebasesUndrainedEvents: events not yet drained when a
// retirement lands are rewritten into the new handle space, retired
// sides becoming -1; the drain cursor and CompactEvents interplay stays
// coherent.
func TestRetireRebasesUndrainedEvents(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)
	w0 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 100})
	w1 := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 100})
	t0 := mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 1), Release: 0, Expiry: 100})
	t1 := mustAddTask(t, s, model.Task{Loc: geo.Pt(2, 2), Release: 0, Expiry: 100})
	if !s.TryMatch(w0, t0, 1) {
		t.Fatal("first match refused")
	}
	got := s.DrainEvents(nil) // consume the first match
	if len(got) != 1 {
		t.Fatalf("drained %d, want 1", len(got))
	}
	if !s.TryMatch(w1, t1, 4) { // undrained when Retire(2) lands
		t.Fatal("second match refused")
	}
	s.Advance(5)
	if dw, dt := s.Retire(2); dw != 1 || dt != 1 {
		t.Fatalf("Retire(2) dropped %d/%d, want 1/1", dw, dt)
	}
	evs := s.DrainEvents(nil)
	if len(evs) != 1 || evs[0].Kind != EventMatch {
		t.Fatalf("undrained tail = %+v, want the second match only", evs)
	}
	// w1/t1 survived (matched at 4 > horizon 2) and compacted to 0/0.
	if evs[0].Worker != 0 || evs[0].Task != 0 {
		t.Fatalf("undrained match = %+v, want remapped handles (0,0)", evs[0])
	}
}

// TestRetireRacingScheduledTimer: a retirement between Schedule and the
// timer's firing must not lose the timer, and the callback observes the
// post-retirement handle space.
func TestRetireRacingScheduledTimer(t *testing.T) {
	var fired []float64
	var liveAtFire int
	alg := &retirableScript{}
	alg.scriptAlg = scriptAlg{
		name: "timer",
		onTimer: func(p Platform, now float64) {
			fired = append(fired, now)
			liveAtFire = p.NumWorkers()
		},
	}
	s := retireSession(t, Strict, alg)
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 2}) // dead at 2
	mustAddWorker(t, s, model.Worker{Loc: geo.Pt(2, 2), Arrive: 0, Patience: 50})
	s.Schedule(10)
	s.Advance(5)
	if dw, _ := s.Retire(s.Now()); dw != 1 {
		t.Fatalf("retired %d workers, want 1", dw)
	}
	s.Advance(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("timer fired %v, want exactly once at 10 across the retirement", fired)
	}
	if liveAtFire != 1 {
		t.Fatalf("timer observed %d workers, want the compacted arena (1)", liveAtFire)
	}
}

// TestResetAfterRetire: a session that has been through epochs rewinds
// cleanly — a fresh identical run on the same session behaves as if the
// session were new.
func TestResetAfterRetire(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)
	run := func() (matches int, live int) {
		w := mustAddWorker(t, s, model.Worker{Loc: geo.Pt(1, 1), Arrive: 0, Patience: 10})
		r := mustAddTask(t, s, model.Task{Loc: geo.Pt(1, 1), Release: 0, Expiry: 10})
		s.TryMatch(w, r, 1)
		s.Advance(5)
		s.Retire(s.Now())
		mustAddWorker(t, s, model.Worker{Loc: geo.Pt(3, 3), Arrive: 5, Patience: 100})
		return s.Matches(), s.NumWorkers()
	}
	m1, l1 := run()
	s.Reset(&retirableScript{scriptAlg: scriptAlg{name: "noop"}})
	if s.Epoch() != 0 || s.Matches() != 0 || s.AdmittedWorkers() != 0 {
		t.Fatalf("Reset left epoch=%d matches=%d admitted=%d", s.Epoch(), s.Matches(), s.AdmittedWorkers())
	}
	m2, l2 := run()
	if m1 != m2 || l1 != l2 {
		t.Fatalf("post-Reset run (%d, %d) differs from first (%d, %d)", m2, l2, m1, l1)
	}
}

// TestRetireSteadyStateDoesNotAllocate: a soak loop of admit → expire →
// retire must settle to zero allocations per round, the property that
// makes scheduled retirement safe on the serving hot path.
func TestRetireSteadyStateDoesNotAllocate(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	s := retireSession(t, Strict, alg)
	clock := 0.0
	var evbuf []SessionEvent
	round := func() {
		for i := 0; i < 32; i++ {
			mustAddWorker(t, s, model.Worker{Loc: geo.Pt(float64(i%10)*10, 5), Arrive: clock, Patience: 1})
			mustAddTask(t, s, model.Task{Loc: geo.Pt(5, float64(i%10)*10), Release: clock, Expiry: 1})
			clock += 0.1
		}
		clock += 2 // everything above expires
		s.Advance(clock)
		evbuf = s.DrainEvents(evbuf[:0])
		s.CompactEvents()
		s.Retire(clock)
	}
	for i := 0; i < 8; i++ {
		round() // warm all capacities
	}
	if avg := testing.AllocsPerRun(16, round); avg > 0 {
		t.Fatalf("soak round allocates %.1f times at steady state, want 0", avg)
	}
	if s.NumWorkers() != 0 || s.NumTasks() != 0 {
		t.Fatalf("arenas %d/%d after full-expiry soak, want 0/0", s.NumWorkers(), s.NumTasks())
	}
	if math.IsInf(s.Now(), -1) {
		t.Fatal("clock never advanced")
	}
}

// capacities names every table of s that follows its handles with the
// entries it has room for: page count times page length for the paged
// arenas, capacity for the deadline queues.
func capacities(s *Session) map[string]int {
	return map[string]int{
		"workers":      s.workers.PageCount() * pageLen,
		"wstate":       s.wstate.PageCount() * pageLen,
		"motion":       s.motion.PageCount() * pageLen,
		"tasks":        s.tasks.PageCount() * pageLen,
		"tMatch":       s.tMatch.PageCount() * pageLen,
		"tMatchAt":     s.tMatchAt.PageCount() * pageLen,
		"tWithdrawn":   s.tWithdrawn.PageCount() * pageLen,
		"wExpiry.fifo": cap(s.wExpiry.fifo),
		"wExpiry.heap": cap(s.wExpiry.heap),
		"tExpiry.fifo": cap(s.tExpiry.fifo),
		"tExpiry.heap": cap(s.tExpiry.heap),
	}
}

// TestRetireReleasesBurstCapacity: a burst fills pages in every arena
// (and grows the deadline queues), and once it has died and an ordinary
// epoch has gone by, the next retirement frees what lies beyond twice that
// epoch's use — without touching what survives: the remap tables and the
// survivors' ground truth are exactly what the dead-predicate alone says
// they should be. Every table's page count (a queue's capacity) is read
// before and after each retirement, so a table that frees at the wrong
// retirement, or grows again afterwards, is named.
func TestRetireReleasesBurstCapacity(t *testing.T) {
	alg := &retirableScript{scriptAlg: scriptAlg{name: "noop"}}
	var gotW, gotT []int32
	alg.onRemap = func(wm, tm []int32) {
		gotW = append(gotW[:0], wm...)
		gotT = append(gotT[:0], tm...)
	}
	s := retireSession(t, Strict, alg)
	clock := 0.0
	var evbuf []SessionEvent
	var wantW, wantT []int32
	var liveW []model.Worker
	var liveT []model.Task
	// Every round leaves a few long-lived survivors behind, so each
	// retirement has something to carry across (and, their deadlines being
	// out of order, the deadline queues run on their overflow heaps). It
	// returns every table's capacity before and after its retirement.
	round := func(n int) (before, after map[string]int) {
		for i := 0; i < n; i++ {
			patience := 1.0
			if i%64 == 0 {
				patience = 1e6
			}
			mustAddWorker(t, s, model.Worker{ID: int(clock*1000) + i, Loc: geo.Pt(float64(i%10)*10, 5), Arrive: clock, Patience: patience})
			mustAddTask(t, s, model.Task{ID: int(clock*1000) + i, Loc: geo.Pt(5, float64(i%10)*10), Release: clock, Expiry: patience})
		}
		clock += 2
		s.Advance(clock)
		evbuf = s.DrainEvents(evbuf[:0])
		s.CompactEvents()
		// What the retirement must do, from the dead-predicate alone.
		wantW, wantT, liveW, liveT = wantW[:0], wantT[:0], liveW[:0], liveT[:0]
		for h := range s.NumWorkers() {
			if s.workerDead(h, clock) {
				wantW = append(wantW, RetiredHandle)
				continue
			}
			wantW = append(wantW, int32(len(liveW)))
			liveW = append(liveW, *s.Worker(h))
		}
		for h := range s.NumTasks() {
			if s.taskDead(h, clock) {
				wantT = append(wantT, RetiredHandle)
				continue
			}
			wantT = append(wantT, int32(len(liveT)))
			liveT = append(liveT, *s.Task(h))
		}
		before = capacities(s)
		s.Retire(clock)
		after = capacities(s)
		if !slices.Equal(gotW, wantW) || !slices.Equal(gotT, wantT) {
			t.Fatalf("round of %d: remap tables differ from the dead-predicate's", n)
		}
		if s.NumWorkers() != len(liveW) || s.NumTasks() != len(liveT) {
			t.Fatalf("round of %d: %d workers and %d tasks survive, want %d and %d", n, s.NumWorkers(), s.NumTasks(), len(liveW), len(liveT))
		}
		for h, w := range liveW {
			if *s.Worker(h) != w {
				t.Fatalf("round of %d: surviving worker %d differs from the dead-predicate's", n, h)
			}
		}
		for h, task := range liveT {
			if *s.Task(h) != task {
				t.Fatalf("round of %d: surviving task %d differs from the dead-predicate's", n, h)
			}
		}
		if s.wstate.Len() != len(liveW) || s.tMatch.Len() != len(liveT) || s.tMatchAt.Len() != len(liveT) || s.tWithdrawn.Len() != len(liveT) {
			t.Fatalf("round of %d: side tables out of step with the arenas", n)
		}
		return before, after
	}
	burstTables := []string{"workers", "wstate", "tasks", "tMatch", "tMatchAt", "tWithdrawn", "wExpiry.heap", "tExpiry.heap"}
	const burst, steady = 40000, 300
	// The retirement that ended the burst epoch saw the burst in use: it
	// frees nothing.
	before, atBurst := round(burst)
	for _, name := range burstTables {
		if atBurst[name] < burst-burst/64 {
			t.Fatalf("%s: room for %d entries after a burst of %d", name, atBurst[name], burst)
		}
	}
	for name, n := range atBurst {
		if n != before[name] {
			t.Fatalf("%s: room for %d entries before the burst's retirement, %d after", name, before[name], n)
		}
	}
	// The next one sees an ordinary epoch under burst capacity and frees it.
	_, after := round(steady)
	for _, name := range burstTables {
		if n := after[name]; n >= atBurst[name]/4 || n < steady {
			t.Fatalf("%s: room for %d entries after the burst died, %d at the burst", name, n, atBurst[name])
		}
	}
	// From here on no retirement frees anything and no round grows a table.
	for i := 0; i < 8; i++ {
		prev := after
		var before map[string]int
		before, after = round(steady)
		for name, n := range after {
			if before[name] != prev[name] || n != prev[name] {
				t.Fatalf("round %d after the refit: %s went from room for %d entries to %d before its retirement and %d after", i, name, prev[name], before[name], n)
			}
		}
	}
}
