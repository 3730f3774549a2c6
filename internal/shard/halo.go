// Halo arbitration — the machinery that lets border objects exist in
// several shard sessions at once without ever being matched twice.
//
// A border admission (see Placement) is admitted to its owner shard and
// mirrored as a *ghost* into every reachable neighbor session. All copies
// of one logical object share a single immutable mirror record carrying
// an atomic claim word; whichever session wants to commit a match (or, in
// Strict mode, report the owner copy's expiry) must win the claim first:
//
//   - every shard session runs with a sim CommitGate: a TryMatch whose
//     endpoints include mirrored objects only commits after
//     claim-CASing each of their records free→matched. Losing any CAS
//     vetoes the commit — the session never records the pair, the
//     algorithm sees an ordinary platform refusal, and whatever copy won
//     elsewhere stands. The protocol is owner-commits-wins in the
//     deterministic single-writer order: claims are resolved in commit
//     order, and an owner-side commit permanently bars every ghost.
//   - the winning shard's event collection then rewrites the committed
//     match to the endpoints' owner identities (see Event.WorkerShard /
//     TaskShard) — so the merged stream reports each logical match
//     exactly once, under its home addresses — and enqueues a retraction
//     of every losing copy.
//
// Retractions ride a per-shard pending queue (its own leaf mutex, so the
// winner never takes another shard's session lock while holding its own)
// and are applied under the target shard's lock via Session.Withdraw*,
// which silences the copy's expiry and hands it to the next retirement.
// Ghost handle tables (gid → current session handle) are remapped through
// retirement by the session's OnRetire hook, so retractions stay
// addressable across arena epochs.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ftoa/internal/sim"
)

// Claim states of a mirror record. claimPending is transient: it exists
// only for the instruction window in which a gate holds one endpoint
// while CASing the other, and every reader spins past it (settle).
const (
	claimFree uint32 = iota
	claimPending
	claimMatched
	claimExpired
)

// mirror is the shared arbitration record of one halo-mirrored object.
// Everything except the claim word (and commitAt, published through it)
// is immutable after construction, which is what makes the record safe to
// read from any shard without locks.
type mirror struct {
	state atomic.Uint32
	// commitAt is the winning commit's session time, written before state
	// becomes claimMatched and read only after observing that state.
	commitAt float64
	gid      uint64
	side     side  // which kind the object is
	owner    int32 // owning shard
	// ownerLocal is the owner session's handle at admission — the same
	// receipt Handle.Local reports, used as the object's home identity in
	// merged events. Like any receipt it is only epoch-stable; with
	// retirement on it names the admission, not a live arena slot.
	ownerLocal int32
	// copies lists every shard holding a copy, owner first.
	copies []int32
}

// tryClaim attempts to take the record for a commit in flight.
func (m *mirror) tryClaim() bool { return m.state.CompareAndSwap(claimFree, claimPending) }

// release returns a pending claim after the paired endpoint was lost.
func (m *mirror) release() { m.state.Store(claimFree) }

// commit settles a pending claim as matched at session time `at`.
func (m *mirror) commit(at float64) {
	m.commitAt = at
	m.state.Store(claimMatched)
}

// settle returns the record's stable claim state, spinning past the
// transient pending window (a handful of lock-free instructions on the
// claiming shard's goroutine).
func (m *mirror) settle() uint32 {
	for {
		s := m.state.Load()
		if s != claimPending {
			return s
		}
		runtime.Gosched()
	}
}

// claimExpiry resolves the owner copy's deadline against the claim word:
// it returns claimExpired if this expiry now owns the object (no copy
// matched it first), or claimMatched if a commit won the race.
func (m *mirror) claimExpiry() uint32 {
	for {
		switch s := m.settle(); s {
		case claimFree:
			if m.state.CompareAndSwap(claimFree, claimExpired) {
				return claimExpired
			}
		default:
			return s
		}
	}
}

// pendingWithdraw is one queued retraction: the copy of the object with
// this gid held by the queue's shard must be withdrawn.
type pendingWithdraw struct {
	gid  uint64
	side side
}

// haloState is the per-shard half of the arbitration: per side, a dense
// handle→record table for every mirrored copy this shard holds and the
// gid→handle resolution map retractions address copies by; and the pending
// retraction queue. The tables and maps are guarded by the shard's
// session lock; the queue by its own leaf mutex so other shards can feed
// it without ordering against session locks.
type haloState struct {
	ref   [2][]*mirror // by side, then current handle; nil = unmirrored
	byGid [2]map[uint64]int32

	pwMu       sync.Mutex
	pending    []pendingWithdraw
	pendingApp []pendingWithdraw // drain scratch, swapped under pwMu
	hasPending atomic.Bool

	// Stats, owned by the shard lock. ghost counts, by side, the mirrored
	// copies admitted here; suppressedExp the expiry events dropped because
	// the object's lifecycle concluded elsewhere (they correct the session's
	// own expiry counters); claimsLost counts commits vetoed by the
	// arbitration; borderMatches counts commits involving >=1 mirrored
	// endpoint.
	ghost, suppressedExp [2]int
	claimsLost           int
	borderMatches        int
}

// refAt returns the mirror record behind a handle, nil when the handle is
// unmirrored (or beyond the table, which only grows for mirrored copies).
func refAt(refs []*mirror, h int) *mirror {
	if h >= 0 && h < len(refs) {
		return refs[h]
	}
	return nil
}

// putRef registers a mirrored copy at handle h of its side, growing the
// dense table. Callers hold the shard lock.
func (si *shardInstance) putRef(sd side, h int, rec *mirror) {
	refs := si.halo.ref[sd]
	for len(refs) <= h {
		refs = append(refs, nil)
	}
	refs[h] = rec
	si.halo.ref[sd] = refs
	si.halo.byGid[sd][rec.gid] = int32(h)
}

// dropRef unregisters a copy (withdrawal applied, or admission rolled
// back). Callers hold the shard lock.
func (si *shardInstance) dropRef(sd side, h int, rec *mirror) {
	si.halo.ref[sd][h] = nil
	delete(si.halo.byGid[sd], rec.gid)
}

// enqueueWithdraw queues a retraction for this shard. Safe to call from
// any goroutine, including ones holding other shards' session locks: the
// pending queue's mutex is a leaf.
func (si *shardInstance) enqueueWithdraw(pw pendingWithdraw) {
	si.halo.pwMu.Lock()
	si.halo.pending = append(si.halo.pending, pw)
	si.halo.hasPending.Store(true)
	si.halo.pwMu.Unlock()
}

// drainPendingLocked applies every queued retraction to this shard's
// session. Callers hold the shard lock. Retractions are idempotent and
// tolerate missing copies: a gid absent from the maps was never admitted
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
	for _, pw := range si.halo.pendingApp {
		si.applyWithdrawLocked(pw)
	}
}

// applyWithdrawLocked retracts one copy by gid under the shard lock. The
// ref and gid entries are dropped only when the session accepted the
// withdrawal: a refusal means this copy is the one that MATCHED — the
// claim's winner, which can receive a (redundant) retraction from
// ghostLocked's post-admission re-check — and its ref must survive
// so collectLocked keeps recognising the copy's later deadline as a
// ghost/mirrored expiry. Matched copies' entries are reclaimed by
// retirement instead.
func (si *shardInstance) applyWithdrawLocked(pw pendingWithdraw) {
	// Recorded unconditionally (whether the copy is found and whether the
	// session accepts are both deterministic given the shard's op stream,
	// so replay resolves them identically) — and before the mutation, as
	// its own single-record group.
	if si.wal != nil {
		si.wal.opWithdraw(pw)
	}
	if h, ok := si.halo.byGid[pw.side][pw.gid]; ok {
		if rec := si.halo.ref[pw.side][h]; pw.side.withdraw(si.sess, int(h)) {
			si.dropRef(pw.side, int(h), rec)
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
		if int(cs) == winner {
			continue
		}
		ts.shards[cs].enqueueWithdraw(pendingWithdraw{gid: rec.gid, side: rec.side})
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
// whose endpoints are mirrored. Runs inside TryMatch under the shard's
// session lock; it takes no locks itself, so claim resolution can never
// deadlock with another shard's gate.
func (si *shardInstance) gate(w, t int, now float64) bool {
	rw := refAt(si.halo.ref[workerSide], w)
	rt := refAt(si.halo.ref[taskSide], t)
	if rw == nil && rt == nil {
		return true // both endpoints purely local: nothing to arbitrate
	}
	if si.rep != nil {
		return si.replayGate(rw, rt, now)
	}
	ok := si.gateLive(rw, rt, now)
	if si.wal != nil {
		si.wal.recGate(ok)
	}
	return ok
}

// gateLive is the runtime claim arbitration behind gate; the verdict is
// recorded so replay can stand in for the race (replayGate).
func (si *shardInstance) gateLive(rw, rt *mirror, now float64) bool {
	if rw != nil && !rw.tryClaim() {
		si.halo.claimsLost++
		return false
	}
	if rt != nil && !rt.tryClaim() {
		if rw != nil {
			rw.release()
		}
		si.halo.claimsLost++
		return false
	}
	if rw != nil {
		rw.commit(now)
	}
	if rt != nil {
		rt.commit(now)
	}
	return true
}

// onRetire is the session OnRetire hook of one shard: it pushes the
// retirement's old→new handle tables through the halo's dense ref tables
// and gid maps, dropping retired copies, so retractions and gates keep
// resolving across arena epochs. Runs inside Session.Retire under the
// shard lock.
func (si *shardInstance) onRetire(wmap, tmap []int32) {
	for sd, m := range [...][]int32{workerSide: wmap, taskSide: tmap} {
		si.halo.ref[sd], si.halo.byGid[sd] = remapRefs(si.halo.ref[sd], m, si.halo.byGid[sd])
	}
}

// remapRefs rewrites a dense ref table in place through a retirement
// table. Survivor handles only move left (retirement left-compacts), so
// the ascending pass never overwrites an unprocessed slot. The table
// follows the session's refit rule (sim.Refit); when it is reallocated
// down, the gid map — whose buckets the same burst sized, and which
// deletes never shrink — is rebuilt at its live size with it.
func remapRefs(refs []*mirror, m []int32, byGid map[uint64]int32) ([]*mirror, map[uint64]int32) {
	for old, rec := range refs {
		if rec == nil {
			continue
		}
		refs[old] = nil
		n := m[old]
		if n < 0 {
			delete(byGid, rec.gid)
			continue
		}
		refs[n] = rec
		byGid[rec.gid] = n
	}
	// Survivors sit below len(m); the table's tail is all nil and can go.
	refs = refs[:min(len(refs), len(m))]
	if fit := sim.Refit(refs, len(m)); cap(fit) != cap(refs) {
		live := make(map[uint64]int32, len(byGid))
		for gid, h := range byGid {
			live[gid] = h
		}
		return fit, live
	}
	return refs, byGid
}
