package shard

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ftoa/internal/codec"
	"ftoa/internal/faultfs"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard/wal"
	"ftoa/internal/sim"
)

// TestOneAdmissionPath pins the package's shape from its source: an
// arrival's destination is resolved in one place, a copy enters a session
// through one function, and the worker/task fork lives in side.go alone.
func TestOneAdmissionPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	comment := regexp.MustCompile(`(?m)^\s*//.*$`)
	// A session call per kind, a branch on a `task` flag, a comparison
	// against one side, or a test of a record type for its side.
	fork := regexp.MustCompile(`\.(AddWorker|AddTask|AddMigratedWorker|AddMigratedTask|WithdrawWorker|WithdrawTask|NumWorkers|NumTasks|WorkerLive|TaskLive)\(` +
		`|if (!)?([a-z.]+\.)?task\b|(==|!=) *(workerSide|taskSide)\b|case (workerSide|taskSide)\b` +
		`|(==|!=) *op(Ghost)?(Worker|Task)\b`)
	// installLocked: the direct path, the drainer's interior run, a ghost
	// copy, and replay.
	want := map[string]int{".Mirrors(": 1, ".installLocked(": 4, ".side.admit(": 1, "func (ts *topoState) route(": 1, "func (r *Router) admit(": 1}
	count := map[string]int{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "placement.go" {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := comment.ReplaceAllString(string(raw), "")
		for s := range want {
			count[s] += strings.Count(src, s)
		}
		if f == "side.go" {
			continue
		}
		for _, m := range fork.FindAllString(src, -1) {
			// Snapshots read both populations; they do not choose between them.
			if f == "router.go" && (m == ".NumWorkers(" || m == ".NumTasks(") {
				continue
			}
			t.Errorf("%s forks on the object kind outside side.go: %q", f, m)
		}
	}
	for s, n := range want {
		if count[s] != n {
			t.Errorf("%d occurrences of %q outside placement.go, want %d", count[s], s, n)
		}
	}
}

// TestRouterRefusesNonFinite: an arrival whose deadline is NaN used to be
// admitted and break the shard's expiry heap — later deadlines came late or
// never, and the objects were retired with no terminal event. Every
// finite-deadline worker must expire exactly when due whatever was offered
// beside it.
func TestRouterRefusesNonFinite(t *testing.T) {
	r, err := NewRouter(testRetireConfig(1, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	var deadlines []float64
	for i := 0; i < 50; i++ {
		w := model.Worker{ID: i, Loc: geo.Pt(50, 50), Arrive: 1, Patience: float64(60 - i)} // deadlines 61…12
		if i%7 == 3 {
			w.Patience = math.NaN()
		} else {
			deadlines = append(deadlines, w.Deadline())
		}
		if _, _, err := r.AddWorker(w); (err != nil) != (i%7 == 3) || (err != nil && !errors.Is(err, ErrInvalidAdmission)) {
			t.Fatalf("worker %d (patience %v): err = %v", i, w.Patience, err)
		}
	}
	due := func(now float64) (n int) {
		for _, d := range deadlines {
			if d <= now {
				n++
			}
		}
		return n
	}
	for now := 2.0; now <= 40; now++ {
		r.Advance(now)
		if got := r.ShardStats(0).ExpiredWorkers; got != due(now) {
			t.Fatalf("at t=%v %d workers have expired, %d were due", now, got, due(now))
		}
	}
	r.Advance(1000)
	if got := r.ShardStats(0).ExpiredWorkers; got != len(deadlines) || len(allEvents(t, r)) != len(deadlines) {
		t.Fatalf("%d expired, %d events; want %d of each", got, len(allEvents(t, r)), len(deadlines))
	}
}

// TestAdmissionDoorsRefuseNonFinite: the direct calls, the ring and WAL
// replay each refuse an arrival with a non-finite location or a NaN time or
// window, on both sides and for owner and border placements alike; a +Inf
// window stays legal.
func TestAdmissionDoorsRefuseNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []admission{
		{loc: geo.Pt(nan, 50), window: 5},
		{loc: geo.Pt(50, -inf), window: 5},
		{loc: geo.Pt(inf, 50), window: 5},
		{loc: geo.Pt(50, 50), at: nan, window: 5},
		{loc: geo.Pt(50, 50), window: nan}, // on the corner of four shards: a border placement
		{loc: geo.Pt(20, 20), at: -inf, window: inf},
	}
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 10, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adm := NewAdmitter(r, AdmitterConfig{})
	for i, ad := range bad {
		for _, sd := range sides {
			w := model.Worker{ID: i, Loc: ad.loc, Arrive: ad.at, Patience: ad.window}
			task := model.Task{ID: i, Loc: ad.loc, Release: ad.at, Expiry: ad.window}
			var res AdmitResult
			var wg sync.WaitGroup
			ok := false
			if sd == taskSide {
				_, _, err = r.AddTask(task)
				ok = adm.AddTask(task, &res, &wg)
			} else {
				_, _, err = r.AddWorker(w)
				ok = adm.AddWorker(w, &res, &wg)
			}
			if !errors.Is(err, ErrInvalidAdmission) {
				t.Errorf("direct door admitted %+v (side %d): err = %v", ad, sd, err)
			}
			if wg.Wait(); !ok || !errors.Is(res.Err, ErrInvalidAdmission) {
				t.Errorf("ring door admitted %+v (side %d): enqueued %v, err = %v", ad, sd, ok, res.Err)
			}
		}
	}
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Patience: inf}); err != nil {
		t.Fatalf("a worker that never expires was refused: %v", err)
	}
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(20, 20), Release: 3, Expiry: inf}); err != nil {
		t.Fatalf("a task that never expires was refused: %v", err)
	}
	adm.Close()
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	if tot := r.Totals(); tot.owned() != 2 {
		t.Fatalf("the router owns %d admissions, want the 2 legal ones: %+v", tot.owned(), tot)
	}
	// The replay door: the same log with one CRC-valid record of each bad
	// admission appended. Recovery must refuse it, not rebuild a poisoned
	// shard from it.
	if _, _, err := Recover(cfg); err != nil {
		t.Fatalf("the clean log does not recover: %v", err)
	}
	clean := fs.Durable("wal/s000-g000001.wal")
	for i := range bad {
		for _, sd := range sides {
			ad := bad[i]
			ad.side = sd
			fs := faultfs.New()
			fs.SetFile("wal/s000-g000001.wal", codec.AppendFrame(append([]byte(nil), clean...), encodeAdmission(nil, &ad, nil, false)))
			cfg.WAL = &wal.Options{Dir: "wal", Policy: wal.SyncAlways, FS: fs}
			_, _, err := Recover(cfg)
			if !errors.Is(err, ErrInvalidAdmission) || !strings.Contains(err.Error(), "wal:") {
				t.Errorf("replay door admitted %+v: err = %v", ad, err)
			}
		}
	}
}

// TestSideMatchesSession: the side methods are the session's per-kind calls
// and boundary rules, nothing more — what the single admission path relies
// on when it treats the two kinds as one.
func TestSideMatchesSession(t *testing.T) {
	m, err := sim.NewMatcher(testConfig(1, 1).Matcher)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(&greedyAlg{})
	wa := workerAdmission(model.Worker{ID: 7, Loc: geo.Pt(10, 10), Arrive: 2, Patience: 3})
	ta := taskAdmission(model.Task{ID: 8, Loc: geo.Pt(90, 90), Release: 1, Expiry: 3})
	for _, ad := range []admission{wa, ta} {
		h, at, err := ad.side.admit(s, &ad)
		if err != nil || h != 0 || at != 2 || ad.side.count(s) != 1 {
			t.Fatalf("side %d: admit = %d, %v, %v with %d held", ad.side, h, at, err, ad.side.count(s))
		}
		back, live := ad.side.migrant(s, h)
		ad.at = 2 // the session clamps the task's release up to its clock
		if !live || back != ad {
			t.Fatalf("side %d: migrant = %+v, %v; want %+v", ad.side, back, live, ad)
		}
	}
	// Both deadlines are 5: at the boundary the worker has left, the task
	// can still be reached.
	if !workerSide.closedAt(5, 5) || taskSide.closedAt(5, 5) || workerSide.closedAt(5, 4.9) || !taskSide.closedAt(5, 5.1) {
		t.Fatal("closedAt disagrees with the session's deadline boundaries")
	}
	s.Advance(5)
	if s.ExpiredWorkers() != 1 || s.ExpiredTasks() != 0 {
		t.Fatalf("at both deadlines the session expired %d workers and %d tasks", s.ExpiredWorkers(), s.ExpiredTasks())
	}
	for _, sd := range sides {
		for _, ghost := range []bool{false, true} {
			if gotSide, gotGhost := admissionKind(sd.admissionOp(ghost)); gotSide != sd || gotGhost != ghost {
				t.Fatalf("admissionOp(%d, %v) = 0x%02x decodes as (%d, %v)", sd, ghost, sd.admissionOp(ghost), gotSide, gotGhost)
			}
		}
	}
	if !taskSide.withdraw(s, 0) || taskSide.withdraw(s, 0) || s.WithdrawnTasks() != 1 || s.WithdrawnWorkers() != 0 {
		t.Fatalf("withdraw retracted %d tasks and %d workers, want the task once", s.WithdrawnTasks(), s.WithdrawnWorkers())
	}
}
