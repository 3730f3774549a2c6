// Platform-initiated withdrawal through the Router — the primitive behind
// the wire protocol's Withdraw request (a worker goes offline, a task is
// cancelled). This is distinct from the halo's internal retractions
// (halo.go), which address task copies by gid after an arbitration
// settled: a platform withdrawal addresses an admission RECEIPT —
// (Handle, epoch) — and, for a mirrored task, must itself win the task's
// claim word first, because a neighbor session holding a ghost copy could
// otherwise still commit it. A worker is never mirrored: withdrawing one
// is a local affair.
//
// Receipt semantics: a Handle's Local is only stable within the arena
// epoch it was issued in (retirement compacts and remaps handles), so the
// caller must present the epoch reported at admission and the withdrawal
// is refused with ErrStaleHandle once the shard has retired past it.
// This is deliberately conservative — a receipt from an older epoch may
// still name a live object, but verifying that would require per-object
// identity tracking the arenas do not keep; clients that withdraw
// promptly (within the -retire interval) never see the refusal.
package shard

import (
	"errors"
	"fmt"
)

// ErrStaleHandle is returned by WithdrawWorker/WithdrawTask when the
// receipt's epoch predates the shard's current arena epoch: the handle may
// have been remapped by retirement and no longer names the admitted
// object.
var ErrStaleHandle = errors.New("shard: handle epoch predates the shard's arena epoch (object retired or remapped)")

// WithdrawWorker retracts the worker admitted as (h, epoch) — the receipt
// AddWorker (or the batched admitter) reported — from matching
// consideration. It reports whether the worker was still live: false with
// a nil error means its lifecycle had already concluded (matched, expired
// under Strict, or already withdrawn) and nothing changed. Errors are
// reserved for invalid receipts: an unknown shard or handle, or a stale
// epoch (ErrStaleHandle).
//
// Like the session-level primitive it wraps, withdrawal is silent — no
// lifecycle event is emitted — and makes the object retirable.
func (r *Router) WithdrawWorker(h Handle, epoch uint64) (bool, error) {
	return r.withdraw(h, epoch, workerSide)
}

// WithdrawTask retracts a task receipt everywhere it exists: the owner copy
// and, when the task was halo-mirrored, every ghost copy (a task matched or
// expired elsewhere reports false); see WithdrawWorker for the rest.
func (r *Router) WithdrawTask(h Handle, epoch uint64) (bool, error) {
	return r.withdraw(h, epoch, taskSide)
}

func (r *Router) withdraw(h Handle, epoch uint64, sd side) (bool, error) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	if h.Shard < 0 || h.Shard >= len(ts.shards) {
		return false, fmt.Errorf("shard: withdraw names shard %d, grid has %d", h.Shard, len(ts.shards))
	}
	si := ts.shards[h.Shard]
	applied, err := si.withdrawOwner(r, h.Local, epoch, sd)
	// A claimed border withdrawal enqueued ghost retractions; apply them
	// now (never while holding si.mu) so the copies are gone when the
	// call returns, matching the commit path's retraction promptness.
	r.applyPending(ts)
	return applied, err
}

func (si *shardInstance) withdrawOwner(r *Router, local int, epoch uint64, sd side) (bool, error) {
	si.mu.Lock()
	defer si.mu.Unlock()
	si.drainPendingLocked()
	if si.sess.Epoch() != epoch {
		return false, ErrStaleHandle
	}
	if n := sd.count(si.sess); local < 0 || local >= n {
		return false, fmt.Errorf("shard: withdraw handle %d out of range (shard %d holds %d)", local, si.id, n)
	}
	rec := si.recOf(sd, local)
	if rec != nil && int(rec.owner) != si.id {
		// Honest receipts always name owner copies; a ghost copy's handle
		// is internal to the halo machinery and not withdrawable here.
		return false, fmt.Errorf("shard: handle %d on shard %d is a ghost copy (owner shard %d)", local, si.id, rec.owner)
	}
	claimed := false
	if rec != nil {
		// The task is mirrored: win the claim word before touching the
		// local copy, exactly like a Strict owner expiry — a withdrawal
		// ends the task's availability in every mode, so a ghost session
		// must never commit it afterwards. Losing means a commit (or a
		// Strict expiry) already owns the lifecycle: the local copy is
		// either the winner or already queued for retraction, and the
		// withdrawal is a no-op.
		if !rec.state.CompareAndSwap(claimFree, claimExpired) {
			return false, nil
		}
		claimed = true
		r.retractLosers(si.ts, rec, si.id)
	}
	applied := sd.withdraw(si.sess, local)
	if applied && rec != nil {
		si.dropRef(local, rec)
	}
	if si.wal != nil && (applied || claimed) {
		// Recorded only when something changed: a refused withdrawal
		// mutates nothing and must replay as nothing. The claim outcome is
		// a cross-shard race, so it rides in the record (walcodec.go) and
		// replay reconstructs the claim word instead of re-racing it.
		si.wal.opWithdrawLocal(local, sd, claimed, applied)
	}
	return applied, nil
}

// replayWithdrawLocal applies a recorded platform withdrawal during
// recovery; retraction fan-out is suppressed (each shard's log carries the
// retractions it applied, as opWithdraw records).
func (si *shardInstance) replayWithdrawLocal(local int, sd side, claimed, applied bool) error {
	// The handle comes straight off the log: a CRC proves the record is what
	// was written, not that it names an object this session holds.
	if n := sd.count(si.sess); local < 0 || local >= n {
		return fmt.Errorf("wal: recorded withdrawal of handle %d, the session holds %d", local, n)
	}
	rec := si.recOf(sd, local)
	if claimed {
		if rec == nil {
			return fmt.Errorf("wal: recorded claimed withdrawal of unmirrored handle %d", local)
		}
		rec.state.Store(claimExpired)
	}
	if got := sd.withdraw(si.sess, local); got != applied {
		return fmt.Errorf("wal: withdrawal of handle %d replayed applied=%v, recorded %v", local, got, applied)
	}
	if applied && rec != nil {
		si.dropRef(local, rec)
	}
	return nil
}
