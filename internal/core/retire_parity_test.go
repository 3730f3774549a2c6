package core

import (
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// lifecycleKey identifies one lifecycle event in instance-index space for
// cross-run comparison (handle namespaces differ across epochs, instance
// indexes do not).
type lifecycleKey struct {
	kind sim.SessionEventKind
	w, t int
	time float64
}

func sortedKeys(ks []lifecycleKey) []lifecycleKey {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.w != b.w {
			return a.w < b.w
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return a.time < b.time
	})
	return ks
}

// retiredStreamReplay feeds the instance through a session exactly like
// streamReplay, but retires the arenas every `every` time units of stream
// time, maintaining the handle→instance translation across epochs via the
// OnRetire hook and collecting the full lifecycle stream via OnEvent (the
// lossless path a serving layer uses). It returns the matching and events
// in instance indexes plus the final live arena sizes.
func retiredStreamReplay(t *testing.T, in *model.Instance, mode sim.Mode, alg sim.Algorithm, every float64) (model.Matching, []lifecycleKey, int, int) {
	t.Helper()
	var h2w, h2t []int
	var out model.Matching
	var events []lifecycleKey
	translate := func(m []int32, ids []int) []int {
		k := 0
		for old, nh := range m {
			if nh >= 0 {
				ids[nh] = ids[old] // nh <= old: in-place forward rebase is safe
				k++
			}
		}
		return ids[:k]
	}
	cfg := sim.MatcherConfig{
		Mode:     mode,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		Hints: sim.Hints{
			ExpectedWorkers: len(in.Workers),
			ExpectedTasks:   len(in.Tasks),
			Horizon:         in.Horizon,
		},
		OnEvent: func(ev sim.SessionEvent) {
			k := lifecycleKey{kind: ev.Kind, w: -1, t: -1, time: ev.Time}
			if ev.Worker >= 0 {
				k.w = h2w[ev.Worker]
			}
			if ev.Task >= 0 {
				k.t = h2t[ev.Task]
			}
			events = append(events, k)
			if ev.Kind == sim.EventMatch {
				out.Add(k.w, k.t)
			}
		},
		OnRetire: func(wm, tm []int32) {
			h2w = translate(wm, h2w)
			h2t = translate(tm, h2t)
		},
	}
	m, err := sim.NewMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(alg)
	lastRetire := 0.0
	for _, ev := range in.Events() {
		if ev.Time >= lastRetire+every {
			sess.Retire(sess.Now())
			lastRetire = ev.Time
		}
		switch ev.Kind {
		case model.WorkerArrival:
			// Handles are dense, so the next handle is len(h2w); the map
			// must be extended before admission because the arrival hook
			// can commit (and report) a match synchronously.
			h2w = append(h2w, ev.Index)
			if _, err := sess.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			h2t = append(h2t, ev.Index)
			if _, err := sess.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sess.Finish()
	sess.Retire(sess.Now())
	return out, events, sess.NumWorkers(), sess.NumTasks()
}

// plainStreamEvents is the reference run: no retirement, full lifecycle
// stream drained at the end (handles are arrival-ordered, translated via
// the static maps).
func plainStreamEvents(t *testing.T, in *model.Instance, mode sim.Mode, alg sim.Algorithm) (model.Matching, []lifecycleKey) {
	t.Helper()
	var h2w, h2t []int
	for _, ev := range in.Events() {
		if ev.Kind == model.WorkerArrival {
			h2w = append(h2w, ev.Index)
		} else {
			h2t = append(h2t, ev.Index)
		}
	}
	sess := sessionMatcher(t, in, mode).NewSession(alg)
	feedInstance(t, sess, in)
	sess.Finish()
	var out model.Matching
	var events []lifecycleKey
	for _, ev := range sess.DrainEvents(nil) {
		k := lifecycleKey{kind: ev.Kind, w: -1, t: -1, time: ev.Time}
		if ev.Worker >= 0 {
			k.w = h2w[ev.Worker]
		}
		if ev.Task >= 0 {
			k.t = h2t[ev.Task]
		}
		events = append(events, k)
		if ev.Kind == sim.EventMatch {
			out.Add(k.w, k.t)
		}
	}
	return out, events
}

// TestRetireReplayParity is the acceptance gate for generational
// retirement: for every algorithm and both validation modes, a run that
// retires its arenas many times mid-stream must commit the bit-identical
// matching AND emit the bit-identical lifecycle event stream (matches and
// expiries, in instance indexes) as an unretired run — whose own expiry
// stream is pinned to the brute-force oracle by
// TestExpiryEventsMatchOracle. Retirement is observational-only by
// construction (it drops provably dead objects); this test is what keeps
// that claim honest across all six algorithms' remap hooks.
func TestRetireReplayParity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 400, 400
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Retire roughly every 1/12 of the day — frequent enough that dozens
	// of epochs land mid-deadline-window, racing pending expiries and GR's
	// batch timer.
	every := cfg.Horizon / 12
	for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
		for _, a := range sixAlgorithms(t, cfg) {
			t.Run(a.name+"/"+mode.String(), func(t *testing.T) {
				wantM, wantE := plainStreamEvents(t, in, mode, a.mk())
				gotM, gotE, liveW, liveT := retiredStreamReplay(t, in, mode, a.mk(), every)
				if wantM.Size() == 0 {
					t.Fatal("degenerate parity: empty matching")
				}
				if gotM.Size() != wantM.Size() {
					t.Fatalf("retired run matched %d, plain %d", gotM.Size(), wantM.Size())
				}
				gp, wp := sortedPairs(gotM), sortedPairs(wantM)
				for i := range wp {
					if gp[i] != wp[i] {
						t.Fatalf("pair %d differs: retired %+v, plain %+v", i, gp[i], wp[i])
					}
				}
				ge, we := sortedKeys(gotE), sortedKeys(wantE)
				if len(ge) != len(we) {
					t.Fatalf("retired run emitted %d events, plain %d", len(ge), len(we))
				}
				for i := range we {
					if ge[i] != we[i] {
						t.Fatalf("event %d differs: retired %+v, plain %+v", i, ge[i], we[i])
					}
				}
				// Strict mode must actually reclaim: after the final
				// retirement everything matched or expired is gone.
				if mode == sim.Strict && liveW+liveT >= (len(in.Workers)+len(in.Tasks))/2 {
					t.Fatalf("final live arenas %d+%d: retirement reclaimed less than half of %d admissions",
						liveW, liveT, len(in.Workers)+len(in.Tasks))
				}
			})
		}
	}
}

// soakRounds returns how many deadline-window multiples the long-lived
// soak covers (CI raises it via FTOA_SOAK_ROUNDS).
func soakRounds() int {
	if v := os.Getenv("FTOA_SOAK_ROUNDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 12
}

// TestSessionLongLivedSoak is the bounded-memory proof: a single Strict
// session serves the same synthetic day over and over (timestamps
// shifted by the horizon each round, no Finish until the very end,
// retirement on a deadline-window cadence — exactly the shape of a
// long-lived ftoa-serve shard), and after every retirement the live
// arenas must be bounded by the live-object oracle: an unmatched worker
// survives only if it arrived within the last patience window, a task
// within its expiry window. Without Retire the arenas would grow by a
// full population every round.
func TestSessionLongLivedSoak(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	n := int(20000 * 0.02) // the scale-0.02 population of the perf gates
	cfg.NumWorkers, cfg.NumTasks = n, n
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	events := in.Events()
	window := cfg.WorkerPatience
	if cfg.TaskExpiry > window {
		window = cfg.TaskExpiry
	}

	m, err := sim.NewMatcher(sim.MatcherConfig{
		Mode:     sim.Strict,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		// No hints: a live deployment does not know its population.
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(NewSimpleGreedy())

	// Live-object oracle bounds, computed once from the day's shape: how
	// many arrivals fall inside a trailing deadline window anywhere in
	// the day (the maximum over round boundaries is the bound at every
	// retirement point, since rounds repeat identically).
	liveBoundAt := func(now float64) int {
		live := 0
		for i := range in.Workers {
			if in.Workers[i].Arrive > now-cfg.WorkerPatience && in.Workers[i].Arrive <= now {
				live++
			}
		}
		for i := range in.Tasks {
			if in.Tasks[i].Release >= now-cfg.TaskExpiry && in.Tasks[i].Release <= now {
				live++
			}
		}
		return live
	}

	rounds := soakRounds()
	var evbuf []sim.SessionEvent
	round := 0
	soakRound := func() {
		shift := float64(round) * in.Horizon
		round++
		lastRetire := sess.Now()
		for _, ev := range events {
			at := ev.Time + shift
			switch ev.Kind {
			case model.WorkerArrival:
				w := in.Workers[ev.Index]
				w.Arrive = at
				if _, err := sess.AddWorker(w); err != nil {
					t.Fatal(err)
				}
			case model.TaskArrival:
				tk := in.Tasks[ev.Index]
				tk.Release = at
				if _, err := sess.AddTask(tk); err != nil {
					t.Fatal(err)
				}
			}
			if now := sess.Now(); now >= lastRetire+window {
				evbuf = sess.DrainEvents(evbuf[:0])
				sess.CompactEvents()
				sess.Retire(now)
				lastRetire = now

				// In-stream bound: right after Retire(now) the arena
				// holds only unmatched objects inside their trailing
				// deadline window, i.e. arrivals in (now-window, now].
				// The day repeats shifted, so that set is covered by the
				// day-local oracle at now-shift plus (when the window
				// straddles the round boundary) the previous day's tail.
				bound := liveBoundAt(now-shift) + liveBoundAt(in.Horizon) + 4
				if got := sess.NumWorkers() + sess.NumTasks(); got > bound {
					t.Fatalf("round %d, t=%.0f: live arena %d exceeds live-object bound %d",
						round-1, now, got, bound)
				}
			}
		}
	}
	var matchesBefore int
	for r := 0; r < rounds; r++ {
		soakRound()
		if r == 0 {
			matchesBefore = sess.Matches()
		}
	}
	if sess.Matches() <= matchesBefore {
		t.Fatal("degenerate soak: no matches after the first round")
	}
	if sess.Epoch() < uint64(rounds) {
		t.Fatalf("only %d retirements over %d rounds", sess.Epoch(), rounds)
	}
	// The lifetime totals kept counting while the arenas stayed flat.
	if sess.AdmittedWorkers() != rounds*n {
		t.Fatalf("admitted %d workers, want %d", sess.AdmittedWorkers(), rounds*n)
	}
	// Steady state: a full extra round — thousands of admissions, a
	// day's worth of retirements — must not allocate at all. (The soak
	// above warmed every arena, index and scratch buffer.)
	if avg := testing.AllocsPerRun(2, soakRound); avg > 0 {
		t.Fatalf("steady-state soak round allocates %.1f times, want 0", avg)
	}
	sess.Finish()
}

// burstInstance is a day that opens with a burst of workers — most of
// them arriving inside the first fortieth of the horizon, with a handful
// of tasks — and thins out to a trickle on both sides: the shape that
// leaves a session holding burst-sized arrays long after the objects that
// needed them are gone. The burst is one-sided so that TGOA, whose
// augmenting search is quadratic in simultaneously feasible pairs, still
// gets through it.
func burstInstance(t *testing.T, cfg workload.Synthetic, burstW, burstT, trickle int) *model.Instance {
	t.Helper()
	cfg.NumWorkers, cfg.NumTasks = burstW+trickle, burstT+trickle
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	at := func(i, burst int) float64 {
		if i < burst {
			return cfg.Horizon / 40 * float64(i) / float64(burst)
		}
		return cfg.Horizon/4 + cfg.Horizon*3/4*float64(i-burst)/float64(trickle)
	}
	for i := range in.Workers {
		in.Workers[i].Arrive = at(i, burstW)
	}
	for i := range in.Tasks {
		in.Tasks[i].Release = at(i, burstT)
	}
	return in
}

// pageCounts names every handle table (sim.Pages) reachable from the
// session — its arenas and deadline queues, and through its algorithm the
// algorithm's waiting lists and spatial indexes — with its page count.
func pageCounts(s *sim.Session) map[string]int {
	isPages := func(t reflect.Type) bool {
		return t.PkgPath() == "ftoa/internal/sim" && strings.HasPrefix(t.Name(), "Pages[")
	}
	out := map[string]int{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			// A pointer to a table reads one its owner lists.
			if v.IsNil() || seen[v.Pointer()] || isPages(v.Type().Elem()) {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Slice:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface {
				for i := range v.Len() {
					walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
				}
			}
		case reflect.Struct:
			if isPages(v.Type()) {
				out[path] = v.FieldByName("dir").Len()
				return
			}
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	walk(reflect.ValueOf(s), "session")
	return out
}

// TestRetireReleasesBurstCapacity: for every algorithm, a Strict session
// that lived through a burst gives the burst's pages back at a later
// retirement, and none of it shows in behaviour — the run commits the
// bit-identical matching and emits the bit-identical lifecycle stream as a
// run that never retires (and so never frees anything), which also pins
// the remap tables: the comparison is in instance indexes, translated
// through every table. Every handle table's page count is read before and
// after each retirement, so a table that frees pages twice, grows at a
// retirement or grows again after the burst was given back is named.
func TestRetireReleasesBurstCapacity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	const burst, trickle = 6000, 600
	in := burstInstance(t, cfg, burst, 150, trickle)
	every := cfg.Horizon / 12
	for _, a := range sixAlgorithms(t, cfg) {
		t.Run(a.name, func(t *testing.T) {
			wantM, wantE := plainStreamEvents(t, in, sim.Strict, a.mk())
			gotM, gotE, _, _ := retiredStreamReplay(t, in, sim.Strict, a.mk(), every)
			if wantM.Size() == 0 {
				t.Fatal("degenerate parity: empty matching")
			}
			if !slices.Equal(sortedPairs(gotM), sortedPairs(wantM)) {
				t.Fatalf("retired run matched %d, plain %d, or different pairs", gotM.Size(), wantM.Size())
			}
			if !slices.Equal(sortedKeys(gotE), sortedKeys(wantE)) {
				t.Fatalf("retired run emitted %d events, plain %d, or different events", len(gotE), len(wantE))
			}

			// The same schedule again, watching every table's pages.
			sess := sessionMatcher(t, in, sim.Strict).NewSession(a.mk())
			freedAt := map[string]int{} // table -> the retirement that freed its pages
			var prev map[string]int     // page counts after the last retirement
			lastFree, retirements, peak := -1, 0, 0
			retire := func() {
				before := pageCounts(sess)
				peak = max(peak, before["session.workers"])
				sess.Retire(sess.Now())
				after := pageCounts(sess)
				for name, n := range after {
					switch b := before[name]; {
					case n > b:
						t.Fatalf("retirement %d: %s grew from %d pages to %d", retirements, name, b, n)
					case n < b:
						if i, ok := freedAt[name]; ok {
							t.Fatalf("retirement %d: %s freed pages again (%d -> %d), first at retirement %d", retirements, name, b, n, i)
						}
						freedAt[name], lastFree = retirements, retirements
					case lastFree >= 0 && b != prev[name]:
						t.Fatalf("%s grew from %d pages to %d after retirement %d gave the burst back", name, prev[name], b, lastFree)
					}
				}
				prev = after
				retirements++
			}
			lastRetire := 0.0
			for _, ev := range in.Events() {
				if ev.Time >= lastRetire+every {
					retire()
					lastRetire = ev.Time
				}
				var err error
				if ev.Kind == model.WorkerArrival {
					_, err = sess.AddWorker(in.Workers[ev.Index])
				} else {
					_, err = sess.AddTask(in.Tasks[ev.Index])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			retire()
			// The worker arena held the burst and gives most of it back.
			if _, ok := freedAt["session.workers"]; !ok || prev["session.workers"] >= peak/4*3 {
				t.Fatalf("worker arena: %d pages at the burst, %d at the end", peak, prev["session.workers"])
			}
		})
	}
}
