// Online topology changes — the migration executor behind adaptive
// sharding (package shard/rebalance holds the policy; this file the
// mechanism). Rebalance swaps the router onto a new Topology — typically
// one Split or Merge away from the current one — migrating the live
// population and keeping every externally visible contract intact:
//
//   - the merged event stream stays one continuous Seq-cursor space: the
//     event log belongs to the router, not to a topology, so the old
//     topology's events stay where they are and the new shards append
//     after them;
//   - old admission receipts are invalidated, not aliased: every new
//     session starts its arena epoch above anything the old topology ever
//     issued, so a stale withdrawal fails ErrStaleHandle;
//   - durability continues through a WAL *checkpoint generation*: the
//     migration's re-admissions ARE the checkpoint (recovery replays them
//     into fresh sessions and needs nothing older), committed atomically
//     by a seal record in shard 0 — a crash anywhere before the seal
//     recovers the pre-migration state, after it the post-migration one.
//     Once the seal is durable the generations it supersedes are deleted;
//   - lifetime totals (Router.Totals) read the same before and after: the
//     seal carries what the superseded sessions had counted, less what the
//     re-admissions put into the new ones.
//
// Checkpoint is the same migration onto the topology the router already
// has: nothing moves between regions, but the new generation holds the
// live population and nothing else, which is what bounds a restart by live
// state instead of history.
//
// The migration itself is stop-the-world: it holds the topology
// write lock, so every admission, advance and read path waits (the
// Admitter answers BUSY instead of queueing). Build is non-destructive —
// the successor state is assembled beside the live one and installed by a
// single pointer swap, so any error aborts with the old state untouched.
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"ftoa/internal/geo"
	"ftoa/internal/shard/wal"
)

// RebalanceInfo summarises one completed migration: a topology change
// (Rebalance) or a checkpoint of the current one (Checkpoint).
type RebalanceInfo struct {
	// Version is the topology epoch after the migration (a checkpoint keeps
	// it); From and To render the old and new topologies (Topology.String).
	Version  uint64
	From, To string
	// Regions is the new region count.
	Regions int
	// MigratedWorkers and MigratedTasks count the live objects re-admitted
	// into the new sessions.
	MigratedWorkers, MigratedTasks int
	// WALGeneration is the checkpoint generation the migration wrote (0
	// without a WAL). Sealed reports that its seal is durable — recovery
	// starts from it; when false, WALErr says why and recovery still yields
	// the pre-migration state. SegmentsRemoved counts the superseded segment
	// files deleted after the seal and RemoveErr is the first failure doing
	// so (what is left is never read and goes with the next seal).
	WALGeneration   uint64
	Sealed          bool
	SegmentsRemoved int
	RemoveErr       error
	// Duration is how long admissions were stopped: topology lock taken to
	// successor state installed and superseded segments removed.
	Duration time.Duration
}

// Topology returns the current region tree. The returned value is
// immutable; derive successors with Split/Merge and apply via Rebalance.
func (r *Router) Topology() *Topology { return r.state().topo }

// TopologyVersion returns the current topology epoch (1 at construction,
// +1 per completed Rebalance).
func (r *Router) TopologyVersion() uint64 { return r.state().version }

// Rebalances returns how many topology changes have completed.
func (r *Router) Rebalances() uint64 { return r.rebalances.Load() }

// Migrating reports whether a Rebalance or Checkpoint is in flight
// (admission fronts answer BUSY while it is).
func (r *Router) Migrating() bool { return r.migrating.Load() }

// SampleRates folds each shard's owner-admission count into its
// arrival-rate EWMA (Stats.ArrivalRate) against the time constant tau
// (seconds; tau <= 0 tracks the instantaneous rate). now must come from a
// monotone clock shared by successive calls; samples at non-increasing
// now are baselined, not folded. The first call after construction or
// after a Rebalance only baselines the counters, so migration re-admissions
// never read as an arrival burst.
func (r *Router) SampleRates(now, tau float64) {
	ts := r.state()
	for _, si := range ts.shards {
		si.mu.Lock()
		count := si.sess.AdmittedWorkers() + si.sess.AdmittedTasks() - si.halo.ghost
		if !si.rateInit || now <= si.rateAt {
			si.rateInit = true
			si.rateCount, si.rateAt = count, now
			si.mu.Unlock()
			continue
		}
		dt := now - si.rateAt
		inst := float64(count-si.rateCount) / dt
		alpha := 1.0
		if tau > 0 {
			alpha = 1 - math.Exp(-dt/tau)
		}
		si.rateEWMA += alpha * (inst - si.rateEWMA)
		si.rateCount, si.rateAt = count, now
		si.mu.Unlock()
	}
}

// Rebalance migrates the router onto topo (same base grid, different
// split structure) and returns what moved. See the package comment above
// for the contracts; on error the router is unchanged (a WAL checkpoint
// generation opened by a failed attempt remains on disk unsealed and is
// skipped by recovery).
func (r *Router) Rebalance(topo *Topology) (*RebalanceInfo, error) {
	if topo == nil {
		return nil, errors.New("shard: nil topology")
	}
	return r.migrate(topo)
}

// Checkpoint re-admits the live population into fresh sessions of the
// current topology and seals that as a new WAL generation, then deletes the
// generations it supersedes: recovery afterwards reads the live set, not
// the history. It is Rebalance onto the same topology and shares its
// contracts — admissions stop for its duration, receipts issued before it
// go stale, event cursors carry across on the live router and fall below
// the retention window of one recovered from it, algorithm state restarts
// from the live population. Without a WAL there is nothing to seal and
// Checkpoint does nothing, returning (nil, nil).
func (r *Router) Checkpoint() (*RebalanceInfo, error) { return r.migrate(nil) }

// migrate is the one migration path; a nil topo is Checkpoint's "the
// current one".
func (r *Router) migrate(topo *Topology) (*RebalanceInfo, error) {
	start := time.Now()
	r.migrating.Store(true)
	defer r.migrating.Store(false)
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	old := r.state()
	version := old.version
	switch {
	case topo == nil:
		if r.walSet == nil {
			return nil, nil
		}
		topo = old.topo
	case topo.BaseCols() != old.topo.BaseCols() || topo.BaseRows() != old.topo.BaseRows():
		return nil, fmt.Errorf("shard: rebalance base %dx%d does not match router base %dx%d",
			topo.BaseCols(), topo.BaseRows(), old.topo.BaseCols(), old.topo.BaseRows())
	case topo.Equal(old.topo):
		return nil, errors.New("shard: rebalance to the current topology")
	default:
		version++
	}

	// Quiesce: settle every pending cross-shard retraction and drain every
	// session's event tail into the event log, so the old state is fully
	// sequenced before it is replaced.
	for _, si := range old.shards {
		si.mu.Lock()
		si.drainPendingLocked()
		si.collectLocked(r)
		si.mu.Unlock()
	}
	r.applyPending(old)
	// The old state is now fully sequenced: everything below seqBase
	// belongs to what the checkpoint supersedes.
	seqBase := r.seq.Load()

	// The new sessions' epoch floor: above every receipt the old topology
	// ever issued. The old max clock is what the new sessions advance to.
	epochFloor := uint64(1)
	maxClock := math.Inf(-1)
	for _, si := range old.shards {
		si.mu.Lock()
		if e := si.sess.Epoch(); e >= epochFloor {
			epochFloor = e + 1
		}
		if now := si.sess.Now(); now > maxClock {
			maxClock = now
		}
		si.mu.Unlock()
	}

	ns, err := r.buildState(topo, version)
	if err != nil {
		return nil, err
	}

	// Open the checkpoint generation before any re-admission so the whole
	// migration records into it; until the seal is durable the generation
	// is invisible to recovery, which makes every failure below a clean
	// abort back to the old state.
	info := &RebalanceInfo{
		Version: ns.version,
		From:    old.topo.String(),
		To:      topo.String(),
		Regions: len(ns.shards),
	}
	newSet := r.walSet
	if r.walSet != nil {
		r.walSet.Flush()
		gen := r.walAttempt + 1
		hm := r.headerMetaFor(ns, gen, genCheckpoint, epochFloor, seqBase)
		newSet, err = r.openWALSet(ns, hm)
		if err != nil {
			return nil, err
		}
		for i, si := range ns.shards {
			si.wal = &shardWAL{log: newSet.Log(i)}
		}
		info.WALGeneration = gen
	}
	abort := func(err error) (*RebalanceInfo, error) {
		if newSet != nil && newSet != r.walSet {
			newSet.Close()
		}
		return nil, err
	}

	for _, si := range ns.shards {
		si.sess.SetEpochFloor(epochFloor)
	}

	// Enumerate the migrants: owner copies (ghosts are re-derived from the
	// new placement) of objects whose lifecycle can still affect matching.
	// expiryFired marks AssumeGuide objects living past an already-emitted
	// deadline, so the new session does not emit it again.
	var migs []admission
	for _, osi := range old.shards {
		osi.mu.Lock()
		for _, sd := range sides {
			for h, n := 0, sd.count(osi.sess); h < n; h++ {
				if rec := osi.recOf(sd, h); rec != nil && int(rec.owner) != osi.id {
					continue
				}
				if ad, live := sd.migrant(osi.sess, h); live {
					migs = append(migs, ad)
				}
			}
		}
		osi.mu.Unlock()
	}
	// Deterministic re-admission order: arrival time, then workers before
	// tasks, then old identity (shard, handle) — which is the order they
	// were enumerated in, so a stable sort keeps it. The stored times are the
	// old owners' clamped stamps, so the new sessions (clock at -inf until the
	// advance below) re-stamp every object at exactly its original time.
	slices.SortStableFunc(migs, func(a, b admission) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.side, b.side))
	})

	// A migration re-admits through the same route and admit as live
	// traffic: ghosts are re-derived from the new placement, and every copy
	// is recorded into the checkpoint generation.
	var migrated [2]int
	var mbuf []int
	for i := range migs {
		ad := &migs[i]
		var owner int
		owner, mbuf = ns.route(ad, mbuf[:0])
		if _, _, _, err := r.admit(ns, owner, mbuf, ad); err != nil {
			return abort(fmt.Errorf("shard: migrating object into region %d: %w", owner, err))
		}
		migrated[ad.side]++
	}
	info.MigratedWorkers, info.MigratedTasks = migrated[workerSide], migrated[taskSide]
	r.applyPending(ns)
	// The re-admissions counted every migrant, owner and ghost copy alike, a
	// second time; those three counters are taken back out so Totals counts
	// each arrival once. Everything else the new sessions counted happened:
	// two live objects that now share a session match, in the event log and
	// in Totals alike.
	readmitted := r.shardTotals(ns)
	ns.carried = old.carried
	ns.carried.add(r.shardTotals(old), 1)
	ns.carried.add(Totals{
		Workers: readmitted.Workers, Tasks: readmitted.Tasks, GhostTasks: readmitted.GhostTasks,
	}, -1)

	// Advance the new sessions to the old topology's max clock. No expiry
	// this fires is new: a migrated object with deadline <= its old shard's
	// clock was either dead (not migrated) or expiry-suppressed, and one
	// with a deadline inside the old shards' clock skew would have fired at
	// the old topology's next advance at the same event time.
	if !math.IsInf(maxClock, -1) {
		for _, si := range ns.shards {
			si.mu.Lock()
			si.drainPendingLocked()
			si.sess.Advance(maxClock)
			si.afterWriteLocked(r)
			if si.wal != nil {
				si.wal.opAdvance(maxClock)
			}
			si.mu.Unlock()
		}
		r.applyPending(ns)
	}

	// Seed the new regions' arrival-rate EWMA from the old regions by area
	// overlap, so the rebalance policy keeps a demand signal across the
	// swap instead of restarting blind. Counters re-baseline at the next
	// SampleRates (rateInit is false on fresh instances).
	oldRates := make([]float64, len(old.shards))
	for i, si := range old.shards {
		si.mu.Lock()
		oldRates[i] = si.rateEWMA
		si.mu.Unlock()
	}
	for j, si := range ns.shards {
		nr := ns.placement.Region(j)
		rate := 0.0
		for i := range old.shards {
			or := old.placement.Region(i)
			if ov := overlapArea(nr, or); ov > 0 {
				rate += oldRates[i] * ov / (or.Width() * or.Height())
			}
		}
		si.rateEWMA = rate
	}

	// Commit. The seal makes the checkpoint generation visible to
	// recovery; a flush failure leaves it unsealed (recovery then yields
	// the pre-migration state) and surfaces via WALErr — the live router
	// swaps regardless, preferring availability, like every WAL error.
	// Only a durable seal lets the older generations go: from then on
	// recovery starts at this one and opens nothing before it.
	if newSet != nil && newSet != r.walSet {
		if err := newSet.Flush(); err == nil {
			newSet.Log(0).Append(encodeSeal(sealMeta{topoVer: ns.version, carried: ns.carried}))
			info.Sealed = newSet.Log(0).Flush() == nil
		}
		r.walSet.Close()
		r.walSet = newSet
		if info.Sealed {
			info.SegmentsRemoved, info.RemoveErr = wal.RemoveBelow(r.cfg.WAL.Filesystem(), r.cfg.WAL.Dir, info.WALGeneration)
		}
	}
	r.top.Store(ns)
	if version != old.version {
		r.rebalances.Add(1)
	}
	info.Duration = time.Since(start)
	return info, nil
}

// overlapArea returns the intersection area of two rectangles.
func overlapArea(a, b geo.Rect) float64 {
	w := math.Min(a.MaxX, b.MaxX) - math.Max(a.MinX, b.MinX)
	h := math.Min(a.MaxY, b.MaxY) - math.Max(a.MinY, b.MinY)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}
