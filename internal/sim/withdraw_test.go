package sim

import (
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// greedy matches every arrival with the first available counterpart, the
// minimal algorithm that exercises TryMatch from both arrival hooks.
type greedy struct{ p Platform }

func (a *greedy) Name() string         { return "test-greedy" }
func (a *greedy) Init(p Platform)      { a.p = p }
func (a *greedy) OnFinish(now float64) {}
func (a *greedy) OnWorkerArrival(w int, now float64) {
	for t := 0; t < a.p.NumTasks(); t++ {
		if a.p.TaskAvailable(t, now) && a.p.TryMatch(w, t, now) {
			return
		}
	}
}
func (a *greedy) OnTaskArrival(t int, now float64) {
	for w := 0; w < a.p.NumWorkers(); w++ {
		if a.p.WorkerAvailable(w, now) && a.p.TryMatch(w, t, now) {
			return
		}
	}
}

// Remap makes the scan greedy retirable: it keeps no per-object state, so
// the hook is a no-op.
func (a *greedy) Remap(workers, tasks []int32) {}

func withdrawSession(t *testing.T, mode Mode, alg Algorithm) *Session {
	t.Helper()
	m, err := NewMatcher(MatcherConfig{Mode: mode, Velocity: 1, Bounds: geo.NewRect(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	return m.NewSession(alg)
}

// TestWithdrawBlocksMatching: a withdrawn object is unavailable in both
// modes and TryMatch refuses pairs involving it.
func TestWithdrawBlocksMatching(t *testing.T) {
	for _, mode := range []Mode{Strict, AssumeGuide} {
		s := withdrawSession(t, mode, &greedy{})
		// Admit a worker, withdraw it, then admit a reachable task: the
		// greedy task scan must not commit.
		w, err := s.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 100})
		if err != nil {
			t.Fatal(err)
		}
		if !s.WithdrawWorker(w) {
			t.Fatal("withdrawing a live worker reported dead")
		}
		if s.WithdrawWorker(w) {
			t.Fatal("double withdrawal reported live")
		}
		if s.WorkerAvailable(w, 0) {
			t.Fatalf("mode %v: withdrawn worker still available", mode)
		}
		tk, err := s.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: 1, Expiry: 100})
		if err != nil {
			t.Fatal(err)
		}
		if s.Matches() != 0 {
			t.Fatalf("mode %v: algorithm matched a withdrawn worker", mode)
		}
		if s.TryMatch(w, tk, 1) {
			t.Fatalf("mode %v: TryMatch committed a withdrawn worker", mode)
		}
		if s.WithdrawnWorkers() != 1 || s.WithdrawnTasks() != 0 {
			t.Fatalf("withdrawn counts %d/%d, want 1/0", s.WithdrawnWorkers(), s.WithdrawnTasks())
		}
		// Task side.
		if !s.WithdrawTask(tk) {
			t.Fatal("withdrawing a live task reported dead")
		}
		if s.TaskAvailable(tk, 1) {
			t.Fatalf("mode %v: withdrawn task still available", mode)
		}
	}
}

// TestWithdrawSuppressesExpiry: a withdrawn object's deadline fires no
// lifecycle event and counts no expiry — its lifecycle is owned elsewhere.
func TestWithdrawSuppressesExpiry(t *testing.T) {
	s := withdrawSession(t, Strict, &greedy{})
	w, _ := s.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 5})
	tk, _ := s.AddTask(model.Task{Loc: geo.Pt(80, 80), Release: 0, Expiry: 5})
	s.WithdrawWorker(w)
	s.WithdrawTask(tk)
	s.Advance(100)
	s.Finish()
	if evs := s.DrainEvents(nil); len(evs) != 0 {
		t.Fatalf("withdrawn objects emitted events: %+v", evs)
	}
	if s.ExpiredWorkers() != 0 || s.ExpiredTasks() != 0 {
		t.Fatalf("expiry counts %d/%d, want 0/0", s.ExpiredWorkers(), s.ExpiredTasks())
	}
}

// TestWithdrawnObjectsRetireInBothModes: withdrawal makes an object
// provably dead even in AssumeGuide mode (where unmatched objects
// otherwise live forever), so the next Retire compacts it away.
func TestWithdrawnObjectsRetireInBothModes(t *testing.T) {
	for _, mode := range []Mode{Strict, AssumeGuide} {
		s := withdrawSession(t, mode, &greedy{})
		w, _ := s.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 1000})
		s.WithdrawWorker(w)
		tk, _ := s.AddTask(model.Task{Loc: geo.Pt(90, 90), Release: 0, Expiry: 1000})
		s.WithdrawTask(tk)
		keepW, _ := s.AddWorker(model.Worker{Loc: geo.Pt(30, 70), Arrive: 1, Patience: 1000})
		s.Advance(2)
		s.DrainEvents(nil)
		dw, dt := s.Retire(s.Now())
		if dw != 1 || dt != 1 {
			t.Fatalf("mode %v: Retire dropped %d/%d, want the withdrawn 1/1", mode, dw, dt)
		}
		if s.NumWorkers() != 1 || s.NumTasks() != 0 {
			t.Fatalf("mode %v: live arenas %d/%d after retire, want 1/0", mode, s.NumWorkers(), s.NumTasks())
		}
		if got := s.Worker(0).Arrive; got != 1 {
			t.Fatalf("mode %v: survivor is not the un-withdrawn worker (arrive %v)", mode, got)
		}
		_ = keepW
		if s.WithdrawnWorkers() != 1 || s.WithdrawnTasks() != 1 {
			t.Fatalf("mode %v: lifetime withdrawal counts lost across retire", mode)
		}
	}
}

// TestCommitGateVeto: a vetoing gate turns an otherwise committable
// TryMatch into a rejection; a passing gate observes the exact pair.
func TestCommitGateVeto(t *testing.T) {
	var calls []SessionEvent
	allow := false
	m, err := NewMatcher(MatcherConfig{
		Mode:     Strict,
		Velocity: 1,
		Bounds:   geo.NewRect(0, 0, 100, 100),
		CommitGate: func(w, tk int, now float64) bool {
			calls = append(calls, SessionEvent{Kind: EventMatch, Worker: w, Task: tk, Time: now})
			return allow
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(&greedy{})
	w, _ := s.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 100})
	tk, _ := s.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: 1, Expiry: 100})
	if len(calls) != 1 || calls[0].Worker != w || calls[0].Task != tk {
		t.Fatalf("gate calls %+v, want one for (%d,%d)", calls, w, tk)
	}
	if s.Matches() != 0 || s.Rejected() == 0 {
		t.Fatalf("vetoed commit landed: matches %d rejected %d", s.Matches(), s.Rejected())
	}
	allow = true
	if !s.TryMatch(w, tk, 1) {
		t.Fatal("gate-approved TryMatch refused")
	}
	if s.Matches() != 1 {
		t.Fatalf("matches %d after approved commit, want 1", s.Matches())
	}
}
