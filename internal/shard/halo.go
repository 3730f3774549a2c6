// Halo arbitration — the machinery that lets a border task exist in
// several shard sessions at once without ever being matched twice.
//
// Only tasks are mirrored (side.go, reach). A border task is admitted to its
// owner shard and, when its own arrival leaves it unmatched, mirrored as a
// *ghost* into every neighbor session within its reach. All copies of one
// task share a mirror record carrying an atomic claim word; whichever
// session wants to commit the task (or, in Strict mode, report the owner
// copy's expiry, or withdraw it) must win the claim first:
//
//   - every shard session runs with a sim CommitGate: a TryMatch whose task
//     is mirrored only commits after one CAS of its claim word out of free
//     (a pair has at most one). Losing vetoes the commit — the session
//     never records the pair, the algorithm sees an ordinary platform
//     refusal, and whatever copy won elsewhere stands.
//   - the winning shard's event collection then rewrites the committed
//     match's task to its owner identity (see Event.TaskShard) — so the
//     merged stream reports each logical match exactly once, under its home
//     address — and enqueues a retraction of every losing copy.
//
// Retractions ride a per-shard pending queue (its own leaf mutex, so the
// winner never takes another shard's session lock while holding its own)
// and are applied under the target shard's lock via Session.WithdrawTask,
// which silences the copy's expiry and hands it to the next retirement.
// Ghost handle tables (gid → current session handle) are remapped through
// retirement by the session's OnRetire hook, so retractions stay
// addressable across arena epochs.
package shard

import (
	"sync"
	"sync/atomic"

	"ftoa/internal/sim"
)

// Claim states of a mirror record. Every transition is one CAS out of
// claimFree, so a state other than free is final. A commit records whether
// it came while the task's window was still open (claimMatched) or after it
// (claimLate, AssumeGuide only): the owner's expiry is suppressed by the
// former alone, as a single session would suppress it.
const (
	claimFree uint32 = iota
	claimMatched
	claimLate
	claimExpired
)

// mirror is the shared arbitration record of one halo-mirrored task. All
// but the claim word is immutable once shared (recovery fills deadline in
// as it replays), so any shard may read it without locks.
type mirror struct {
	state atomic.Uint32
	owner int32 // owning shard
	// ownerLocal is the owner session's handle at admission — the same
	// receipt Handle.Local reports, used as the task's home identity in
	// merged events. Like any receipt it is only epoch-stable; with
	// retirement on it names the admission, not a live arena slot.
	ownerLocal int32
	// deadline is the task's deadline as its owner session stamped it.
	deadline float64
	gid      uint64
	// copies lists every shard holding a copy, owner first.
	copies []int32
}

// haloState is the per-shard half of the arbitration: a dense
// handle→record table for every mirrored task copy this shard holds, the
// gid→handle map retractions address copies by, and the pending retraction
// queue of gids. The table and map are guarded by the shard's session
// lock; the queue by its own leaf mutex so other shards can feed it
// without ordering against session locks.
type haloState struct {
	ref   sim.Pages[*mirror] // by current task handle; nil = unmirrored
	byGid map[uint64]int32

	pwMu       sync.Mutex
	pending    []uint64
	pendingApp []uint64 // drain scratch, swapped under pwMu
	hasPending atomic.Bool

	// Stats, owned by the shard lock. ghost counts the mirrored task copies
	// admitted here; suppressedExp the task expiry events dropped because
	// the task's lifecycle concluded elsewhere (they correct the session's
	// own expiry counter); claimsLost counts commits vetoed by the
	// arbitration; borderMatches counts commits of a mirrored task.
	ghost, suppressedExp int
	claimsLost           int
	borderMatches        int
}

// refAt returns the mirror record behind a task handle, nil when the handle
// is unmirrored (or beyond the table, which only grows for mirrored copies).
func refAt(refs *sim.Pages[*mirror], h int) *mirror {
	if h >= 0 && h < refs.Len() {
		return *refs.At(h)
	}
	return nil
}

// recOf returns the mirror record behind handle h of side sd (nil for a worker).
func (si *shardInstance) recOf(sd side, h int) *mirror {
	if !sd.mirrored() {
		return nil
	}
	return refAt(&si.halo.ref, h)
}

// putRef registers a mirrored task copy at handle h, extending the dense
// table. Callers hold the shard lock.
func (si *shardInstance) putRef(h int, rec *mirror) {
	for si.halo.ref.Len() <= h {
		si.halo.ref.Push(nil)
	}
	*si.halo.ref.At(h) = rec
	si.halo.byGid[rec.gid] = int32(h)
}

// dropRef unregisters a copy (withdrawal applied, or admission rolled
// back). Callers hold the shard lock.
func (si *shardInstance) dropRef(h int, rec *mirror) {
	*si.halo.ref.At(h) = nil
	delete(si.halo.byGid, rec.gid)
}

// enqueueWithdraw queues the retraction of this shard's copy of gid. Safe
// to call from any goroutine, including ones holding other shards' session
// locks: the pending queue's mutex is a leaf.
func (si *shardInstance) enqueueWithdraw(gid uint64) {
	si.halo.pwMu.Lock()
	si.halo.pending = append(si.halo.pending, gid)
	si.halo.hasPending.Store(true)
	si.halo.pwMu.Unlock()
}

// drainPendingLocked applies every queued retraction to this shard's
// session. Callers hold the shard lock. Retractions are idempotent and
// tolerate missing copies: a gid absent from the map was never admitted
// here (the claim settled before the ghost admission) or already left
// through withdrawal or retirement.
func (si *shardInstance) drainPendingLocked() {
	if !si.halo.hasPending.Load() {
		return
	}
	si.halo.pwMu.Lock()
	si.halo.pending, si.halo.pendingApp = si.halo.pendingApp[:0], si.halo.pending
	si.halo.hasPending.Store(false)
	si.halo.pwMu.Unlock()
	for _, gid := range si.halo.pendingApp {
		si.applyWithdrawLocked(gid)
	}
}

// applyWithdrawLocked retracts one task copy by gid under the shard lock.
// The ref and gid entries are dropped only when the session accepted the
// withdrawal: a refusal means this copy is the one that MATCHED — the
// claim's winner, which can receive a (redundant) retraction from
// ghostLocked's post-admission re-check — and its ref must survive so
// collectLocked keeps recognising the copy's later deadline as a
// mirrored expiry. Matched copies' entries are reclaimed by retirement
// instead.
func (si *shardInstance) applyWithdrawLocked(gid uint64) {
	// Recorded unconditionally (whether the copy is found and whether the
	// session accepts are both deterministic given the shard's op stream,
	// so replay resolves them identically) — and before the mutation, as
	// its own single-record group.
	if si.wal != nil {
		si.wal.opWithdraw(gid)
	}
	if h, ok := si.halo.byGid[gid]; ok {
		if rec := *si.halo.ref.At(int(h)); taskSide.withdraw(si.sess, int(h)) {
			si.dropRef(int(h), rec)
		}
	}
}

// retractLosers queues the retraction of every copy of rec except the
// winner shard's own (its copy is the matched or expired one). Copy shard
// ids are meaningful only within one topology epoch, so the fan-out
// resolves siblings through the state the winning shard belongs to —
// which, during a migration, may be the not-yet-published successor.
func (r *Router) retractLosers(ts *topoState, rec *mirror, winner int) {
	for _, cs := range rec.copies {
		if int(cs) != winner {
			ts.shards[cs].enqueueWithdraw(rec.gid)
		}
	}
}

// applyPending drains the retraction queues of every shard flagged as
// having one, taking each shard's lock in turn (never nested). Mutating
// router calls run it after releasing their own locks so a retraction
// issued by a cross-shard commit lands "the moment" the winning call
// returns rather than at the loser's next organic write.
func (r *Router) applyPending(ts *topoState) {
	if !r.haloOn {
		return
	}
	for _, si := range ts.shards {
		if !si.halo.hasPending.Load() {
			continue
		}
		si.mu.Lock()
		si.drainPendingLocked()
		si.mu.Unlock()
	}
}

// gate is the sim CommitGate of one shard session: it arbitrates commits
// whose task is mirrored with one CAS of its claim word. Runs inside
// TryMatch under the shard's session lock; it takes no locks itself, so
// claim resolution can never deadlock with another shard's gate. The
// verdict — the state the commit left, or claimFree for a veto — is
// recorded, and replay stands it in for the race.
func (si *shardInstance) gate(_, t int, now float64) bool {
	rec := refAt(&si.halo.ref, t)
	if rec == nil {
		return true // a purely local task: nothing to arbitrate
	}
	var verdict uint32
	if si.rep != nil {
		if verdict = si.rep.popGate(); verdict != claimFree {
			rec.state.Store(verdict)
		}
	} else {
		s := claimMatched
		if taskSide.closedAt(rec.deadline, now) {
			s = claimLate
		}
		if rec.state.CompareAndSwap(claimFree, s) {
			verdict = s
		}
		if si.wal != nil {
			si.wal.recGate(verdict)
		}
	}
	if verdict == claimFree {
		si.halo.claimsLost++
		return false
	}
	return true
}

// onRetire is the session OnRetire hook of one shard: it pushes the
// retirement's old→new task handle table through the halo's dense ref
// table and gid map, dropping retired copies, so retractions and gates
// keep resolving across arena epochs. Runs inside Session.Retire under the
// shard lock.
func (si *shardInstance) onRetire(_, tmap []int32) {
	si.halo.byGid = remapRefs(&si.halo.ref, tmap, si.halo.byGid)
}

// remapRefs rewrites a dense ref table in place through a retirement
// table. Survivor handles only move left (retirement left-compacts), so
// the ascending pass never overwrites an unprocessed slot. The table
// follows the session's refit rule (sim.Pages.Refit); when it gives pages
// back, the gid map — whose buckets the same burst sized, and which
// deletes never shrink — is rebuilt at its live size with it.
func remapRefs(refs *sim.Pages[*mirror], m []int32, byGid map[uint64]int32) map[uint64]int32 {
	for old := range refs.Len() {
		p := refs.At(old)
		rec := *p
		if rec == nil {
			continue
		}
		*p = nil
		n := m[old]
		if n < 0 {
			delete(byGid, rec.gid)
			continue
		}
		*refs.At(int(n)) = rec
		byGid[rec.gid] = n
	}
	// Survivors sit below len(m); the table's tail is all nil and can go.
	refs.Truncate(min(refs.Len(), len(m)))
	if !refs.Refit(len(m)) {
		return byGid
	}
	live := make(map[uint64]int32, len(byGid))
	for gid, h := range byGid {
		live[gid] = h
	}
	return live
}
