package sim

// Withdrawal — the retraction primitive behind cross-shard halo matching
// (package shard), and of a platform's cancellations. A border task
// mirrored into several sessions must be retracted everywhere else the
// moment one copy is committed or the owner copy expires; WithdrawTask is
// that retraction. A withdrawn object:
//
//   - is unavailable: WorkerAvailable/TaskAvailable report false in both
//     modes (unlike deadlines, which AssumeGuide ignores) and TryMatch
//     refuses any pair involving it;
//   - never expires here: its pending deadline entry is suppressed when it
//     pops, emitting no event and counting no expiry — the object's
//     lifecycle is owned by whichever session committed or expired it;
//   - is provably dead for Retire in both modes, so the next retirement
//     compacts it away.
//
// Withdrawal is silent (no lifecycle event), does not advance the
// session clock and does not call the algorithm: it removes an object
// from consideration, it does not report on it. Withdrawal is
// availability — algorithms already filter candidates through
// WorkerAvailable/TaskAvailable (the same checks that absorb expiries),
// so a withdrawn object is skipped or refused wherever an algorithm
// still holds it, and whatever per-object state it leaves behind is
// dropped by Remap at the next Retire.

// WithdrawWorker retracts worker h from matching consideration (see the
// package comment above). It reports whether the worker was live — an
// already matched or already withdrawn worker is left untouched and the
// call is a no-op, which makes double retraction (a race two arbiters can
// lose) harmless. Withdrawing after Finish is likewise a silent no-op in
// effect: every deadline has already fired.
func (s *Session) WithdrawWorker(h int) bool {
	ws := s.wstate.At(h)
	if ws.matched || ws.withdrawn {
		return false
	}
	ws.withdrawn = true
	s.withdrawnW++
	return true
}

// WithdrawTask retracts task h; see WithdrawWorker.
func (s *Session) WithdrawTask(h int) bool {
	if *s.tMatch.At(h) || *s.tWithdrawn.At(h) {
		return false
	}
	*s.tWithdrawn.At(h) = true
	s.withdrawnT++
	return true
}

// WithdrawnWorkers returns how many workers have been withdrawn over the
// session's lifetime (the count survives retirement).
func (s *Session) WithdrawnWorkers() int { return s.withdrawnW }

// WithdrawnTasks is WithdrawnWorkers for the task side.
func (s *Session) WithdrawnTasks() int { return s.withdrawnT }
