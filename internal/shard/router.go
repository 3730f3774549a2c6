// Package shard serves one service area as a grid of independent matching
// sessions. The Router partitions the configured bounds into Cols×Rows
// regions, runs one sim.Session per region (each with its own algorithm
// instance, each single-writer behind its own lock), routes admissions to
// the region containing their location, and merges the per-shard lifecycle
// event streams into one globally ordered log addressed by a `since`
// sequence cursor (eventlog.go).
//
// This is the horizontal-scaling story of the serving layer: a session is
// deliberately single-goroutine (the algorithms' state is lock-free flat
// slices), so throughput grows by adding regions, not by contending one
// session. With a zero halo, regions are independent in the hyperlocal
// sense — a worker is only matched to tasks of its own region — which
// trades border matching quality for linear scalability. With a positive
// Config.Halo the router recovers that quality: region geometry becomes a
// Placement (owner region plus reachable neighbors), border tasks are
// mirrored as ghosts into the neighbor sessions whose workers could serve
// them, and a lock-free claim protocol guarantees each task commits in at
// most one session (see halo.go). Workers are never mirrored.
//
// The region set is no longer fixed at construction: Rebalance swaps in a
// new Topology — splitting a hot region into a finer sub-grid or merging
// cold siblings back — migrating the live population (see rebalance.go).
// All routing state hangs off one atomically swapped topoState so every
// code path observes a consistent (placement, shards) pair; the event log
// belongs to the router, not to a topology, so cursors carry across.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard/wal"
	"ftoa/internal/sim"
)

// Config parameterises a Router.
type Config struct {
	// Matcher is the base session configuration. Bounds is the FULL
	// service area (it is partitioned into the shard grid); Velocity and
	// Mode apply to every shard; Hints are sized per shard by its region's
	// area share, without the ghosts a halo mirrors in, so no algorithm's
	// matching moves with Halo alone (TGOA reads the hints as its total
	// arrival count).
	// OnEvent/OnRetire/CommitGate must be nil: the router owns event
	// consumption and the retirement and arbitration hooks.
	Matcher sim.MatcherConfig
	// Cols, Rows shape the base shard grid. 1×1 is a valid single-shard
	// deployment and behaves exactly like one session behind one lock.
	// Rebalance refines the base grid online; the static layout is the
	// initial topology. Shard ids are 32-bit, so Cols × Rows ×
	// 4^MaxSplitDepth must not exceed MaxInt32.
	Cols, Rows int
	// Halo, when positive, enables cross-shard border matching: it is the
	// length (a distance) of border pair the router guarantees to find. A
	// task within min(2·Halo, Expiry·Velocity) of a neighboring region —
	// 2·Halo under a sim.DispatchingAlgorithm, whose workers move — is
	// mirrored into its session as a ghost (admission.reach), arbitrated by
	// the claim protocol of halo.go so no task commits twice. Workers are
	// never mirrored. The natural width is Velocity × the workload's
	// deadline window (HaloForWindow); wider halos only add mirroring cost,
	// narrower ones recover less border quality. Zero keeps the disjoint
	// hyperlocal behavior.
	Halo float64
	// NewAlgorithm mints one algorithm instance per shard. Instances must
	// not share mutable state (a shared read-only Guide is fine).
	NewAlgorithm func() sim.Algorithm
	// Retention bounds the event log: it keeps exactly the most recent
	// Retention × Cols × Rows events (Retention per base-grid cell, however
	// the traffic is spread over them), frees older ones a segment at a
	// time, and cursors pointing below that window fail with ErrEvicted.
	// Zero keeps everything (replay drivers, tests).
	Retention int
	// RetireInterval, when positive, schedules generational arena
	// retirement per shard: whenever a write (admission, Advance, Finish)
	// moves a shard's clock at least RetireInterval past its last
	// retirement, the shard — still under its own single-writer lock, so
	// retirement never blocks the other regions — drains its events into
	// the log and calls Session.Retire with the current clock, compacting
	// away matched and (in Strict mode) expired objects. This is what
	// bounds a long-lived router's memory by its live population instead
	// of its lifetime admissions. Requires an algorithm implementing
	// sim.RetirableAlgorithm (all of this repo's algorithms do); NewRouter
	// rejects the config otherwise. Zero disables retirement.
	RetireInterval float64
	// WAL, when non-nil, makes the router durable: every shard records its
	// admissions, withdrawals, arbitration outcomes and event sequencing to
	// an append-only per-shard log under WAL.Dir (see walhook.go), and
	// Recover rebuilds an equivalent router from those logs at boot.
	// NewRouter refuses a directory that already holds segments — recovery
	// over existing history must go through Recover. Topology changes and
	// Checkpoint write a new checkpoint generation and delete the ones it
	// supersedes (see rebalance.go).
	WAL *wal.Options
}

// Handle names an object admitted through a Router: the shard that owns it
// plus the session-local handle within that shard. With RetireInterval
// set, Local is only stable until the owning shard's next retirement
// compacts the object away (which can only happen once it is matched or
// expired) — treat it as an admission receipt, not a durable key. A
// Rebalance invalidates every receipt issued under the old topology (the
// withdraw path reports them ErrStaleHandle).
type Handle struct {
	Shard int
	Local int
}

// Event is one lifecycle event in the merged stream: a shard-local
// sim.SessionEvent tagged with the shard that emitted it and a globally
// unique, strictly increasing sequence number. Merged order is Seq order,
// which is consistent with per-shard fire order (within a shard, Seq and
// Time are both non-decreasing; across shards only Seq is total).
//
// WorkerShard and TaskShard are the OWNER shards of the endpoints (-1 for
// the side an expiry does not involve). Without halo mirroring they
// always equal Shard and the handles are the emitting session's. With
// mirroring, a match may be committed by a session that only holds a
// ghost copy of the task: the event still appears exactly once, with the
// task rewritten to its home identity — the owner shard plus the
// admission receipt Handle.Local reported — so consumers can correlate
// matches with admissions regardless of which border session won. A
// worker is never mirrored: WorkerShard is always Shard.
type Event struct {
	Seq   uint64
	Shard int
	sim.SessionEvent
	WorkerShard int
	TaskShard   int
}

// Stats is a point-in-time snapshot of one shard: the lifetime counters of
// its current session (Totals, monotone across retirements) plus what only
// a single shard has. LiveWorkers/LiveTasks are the current arena
// populations — with retirement on, the gap between them and
// Workers/Tasks is the memory the shard has reclaimed. Its JSON form is a
// shard row of ftoa-serve's GET /stats.
type Stats struct {
	Shard  int      `json:"shard"`
	Bounds geo.Rect `json:"-"`
	Totals
	LiveWorkers int     `json:"live_workers"`
	LiveTasks   int     `json:"live_tasks"`
	Now         float64 `json:"now"`

	// ArrivalRate is the shard's owner-admission rate EWMA in arrivals
	// per second, folded by Router.SampleRates (zero until sampled). It
	// is advisory — the rebalance supervisor's demand signal — and is
	// deliberately not WAL-recorded: a recovered router restarts it.
	ArrivalRate float64 `json:"arrival_rate"`
}

// Totals is the set of lifetime counters. Per shard (Stats) it counts the
// shard's current session; router-wide (Router.Totals) it sums the current
// shards plus every session a Rebalance or Checkpoint has replaced since
// the router — or the log it recovered — began. A migration's
// re-admissions count toward none of the router-wide figure: it reads the
// same immediately before and after one — but for the deadlines that fall
// inside the old shards' clock skew, which the migration's closing advance
// expires like any Advance would — and the same again after recovering
// the generation it sealed.
type Totals struct {
	// Workers/Tasks count admissions — with halo mirroring Tasks includes
	// ghost copies, broken out in GhostTasks.
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	Matches int `json:"matches"`
	// ExpiredWorkers/ExpiredTasks count only lifecycle-owning expiries:
	// deadlines of ghost copies (reported by their owner shard) and of
	// objects that matched elsewhere are excluded.
	ExpiredWorkers int `json:"expired_workers"`
	ExpiredTasks   int `json:"expired_tasks"`
	Attempted      int `json:"attempted"`
	Rejected       int `json:"rejected"`
	// Halo metrics; all zero with Halo disabled. GhostTasks counts mirrored
	// task copies admitted into a shard; GhostWorkers is always zero (workers
	// are never mirrored) and stays for the stats key set. WithdrawnWorkers/
	// WithdrawnTasks count withdrawals: the platform's (withdraw.go) and, for
	// tasks, the copies retracted after their original matched or expired
	// elsewhere; ClaimsLost the commits an algorithm attempted but lost to
	// cross-shard arbitration; and BorderMatches the commits of a mirrored
	// task — the matches disjoint sharding would have missed.
	GhostWorkers     int `json:"ghost_workers"`
	GhostTasks       int `json:"ghost_tasks"`
	WithdrawnWorkers int `json:"withdrawn_workers"`
	WithdrawnTasks   int `json:"withdrawn_tasks"`
	ClaimsLost       int `json:"claims_lost"`
	BorderMatches    int `json:"border_matches"`
}

// fields lists the counters in a fixed order — the order the checkpoint
// seal stores them in (walcodec.go).
func (t *Totals) fields() [13]*int {
	return [13]*int{
		&t.Workers, &t.Tasks, &t.Matches, &t.ExpiredWorkers, &t.ExpiredTasks,
		&t.Attempted, &t.Rejected, &t.GhostWorkers, &t.GhostTasks,
		&t.WithdrawnWorkers, &t.WithdrawnTasks, &t.ClaimsLost, &t.BorderMatches,
	}
}

// add folds d into t, sign times.
func (t *Totals) add(d Totals, sign int) {
	df := d.fields()
	for i, v := range t.fields() {
		*v += sign * *df[i]
	}
}

// ErrEvicted is returned by Events, Matches and EventSub.Next when the
// cursor points below the retention window: events at or above it have
// been dropped. The caller restarts from OldestCursor (OldestMatch),
// accepting the gap.
var ErrEvicted = errors.New("shard: cursor below retention boundary")

// topoState is one topology epoch's complete routing state: the region
// tree, its placement geometry and the live shard set. Every code path
// resolves it through one atomic load so placement and shard indexing can
// never be observed mid-swap. States are immutable once published —
// Rebalance builds the successor aside and swaps the pointer.
type topoState struct {
	version   uint64
	topo      *Topology
	placement *Placement
	// velocity and moving (a sim.DispatchingAlgorithm) bound a task's
	// mirror reach with its window (route).
	velocity float64
	moving   bool
	shards   []*shardInstance
	// carried is what Totals adds to the shards' own counters: the totals of
	// every state this one superseded, less the admissions the migration's
	// re-admissions counted again in these shards (so it can be negative — a
	// migration onto a finer halo grid makes more ghost copies than the old
	// topology ever counted). Set before the state is published.
	carried Totals
}

// Router is a sharded multi-session serving surface; see the package
// comment. All methods are safe for concurrent use: admissions touch only
// the target shard's lock, so disjoint regions admit in parallel.
type Router struct {
	mode   sim.Mode
	haloOn bool
	// cfg is the validated construction config, retained because
	// Rebalance mints fresh sessions (and WAL generations) from it.
	cfg Config

	// topoMu serializes topology swaps against every routing entry point:
	// entry points that touch shard state take RLock (their mutual
	// exclusion stays the per-shard locks, so concurrency is unchanged —
	// an RLock is a handful of nanoseconds against the microsecond-scale
	// admission path), Rebalance takes Lock. top always points at the
	// current state; pure accessors load it without the lock.
	topoMu sync.RWMutex
	top    atomic.Pointer[topoState]

	// migrating is set for the duration of a Rebalance so admission rings
	// can answer BUSY immediately instead of queueing behind the write
	// lock; rebalances counts completed topology changes.
	migrating  atomic.Bool
	rebalances atomic.Uint64

	seq  atomic.Uint64 // next sequence number to assign
	gids atomic.Uint64 // next mirror-group id (halo.go)
	// log is the one store of the merged event stream (eventlog.go):
	// collectLocked appends each sequenced batch, every read is a cursor
	// into it.
	log *eventLog
	// walSet, when non-nil, owns the per-shard write-ahead logs
	// (walhook.go); each shard records through its own si.wal under its
	// single-writer lock. Guarded by topoMu (Rebalance swaps it).
	walSet *wal.Set
	// walAttempt is the highest generation ever opened, including aborted
	// checkpoint generations whose files remain on disk (recovery skips
	// them, but their names are taken). Guarded by topoMu.
	walAttempt uint64
}

// state returns the current topology state. Callers that mutate shard
// state must hold topoMu.RLock so the state cannot be swapped under them;
// pure snapshot readers (stats, cursors) may load it bare.
func (r *Router) state() *topoState { return r.top.Load() }

// shardInstance is one region's session plus its half of the halo
// arbitration state (halo.go).
type shardInstance struct {
	id int
	// ts points back at the topology state this shard belongs to, so
	// cross-shard fan-out (claim retraction) resolves sibling shards of
	// the SAME epoch even while a successor state is being built.
	ts   *topoState
	mu   sync.Mutex
	sess *sim.Session
	// scratch and batch are collectLocked's reused buffers: the session's
	// drained events and their sequenced form on the way to the log.
	scratch []sim.SessionEvent
	batch   []Event
	// retireEvery/lastRetire schedule arena retirement on the shard's
	// session clock; see Config.RetireInterval.
	retireEvery float64
	lastRetire  float64
	halo        haloState
	// Arrival-rate EWMA (Router.SampleRates): rateCount is the own
	// (non-ghost) admission count at the last sample, rateAt its sample
	// clock, rateEWMA the folded rate. Guarded by mu.
	rateEWMA  float64
	rateCount int
	rateAt    float64
	rateInit  bool
	// wal records this shard's operations and decisions (nil without a
	// WAL); rep is non-nil only while this shard's log replays during
	// Recover and redirects the decision hooks to the recorded outcomes.
	wal *shardWAL
	rep *shardReplay
}

// NewRouter validates cfg, partitions the bounds, and starts one session
// per region (running each algorithm's Init).
func NewRouter(cfg Config) (*Router, error) {
	r, err := newRouterShell(cfg)
	if err != nil {
		return nil, err
	}
	ts, err := r.buildState(NewUniformTopology(cfg.Cols, cfg.Rows), 1)
	if err != nil {
		return nil, err
	}
	r.top.Store(ts)
	if cfg.WAL != nil {
		if err := r.attachFreshWAL(&cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newRouterShell validates cfg and returns a router with no topology
// state yet; NewRouter and Recover install the state.
func newRouterShell(cfg Config) (*Router, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("shard: non-positive grid %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.Cols > maxBaseCells/cfg.Rows {
		return nil, fmt.Errorf("shard: grid %dx%d has more than %d cells: split %d deep, its shard ids would exceed MaxInt32",
			cfg.Cols, cfg.Rows, maxBaseCells, MaxSplitDepth)
	}
	if cfg.NewAlgorithm == nil {
		return nil, errors.New("shard: nil NewAlgorithm")
	}
	if cfg.Matcher.OnEvent != nil {
		return nil, errors.New("shard: Matcher.OnEvent must be nil (the router consumes events)")
	}
	if cfg.Matcher.OnRetire != nil || cfg.Matcher.CommitGate != nil {
		return nil, errors.New("shard: Matcher.OnRetire/CommitGate must be nil (the router owns both hooks)")
	}
	if cfg.Retention < 0 {
		return nil, fmt.Errorf("shard: negative retention %d", cfg.Retention)
	}
	if cfg.RetireInterval < 0 {
		return nil, fmt.Errorf("shard: negative retire interval %v", cfg.RetireInterval)
	}
	if !(cfg.Halo >= 0) { // NaN too: every halo comparison would be false
		return nil, fmt.Errorf("shard: halo must be non-negative, got %v", cfg.Halo)
	}
	// Validate the base config before geo.NewGrid sees the bounds:
	// degenerate bounds (zero-area, inverted) must surface as the same
	// clean error a plain Matcher would return, not a grid panic.
	if _, err := sim.NewMatcher(cfg.Matcher); err != nil {
		return nil, err
	}
	return &Router{
		mode:   cfg.Matcher.Mode,
		haloOn: cfg.Halo > 0,
		log:    newEventLog(uint64(cfg.Retention) * uint64(cfg.Cols) * uint64(cfg.Rows)),
		cfg:    cfg,
	}, nil
}

// buildState constructs the complete shard set of a topology: fresh
// sessions (each algorithm's Init run), halo tables when mirroring is on,
// no WAL attachment (the caller wires logs per generation).
func (r *Router) buildState(topo *Topology, version uint64) (*topoState, error) {
	cfg := &r.cfg
	placement := NewPlacementTopo(cfg.Matcher.Bounds, topo, cfg.Halo)
	n := placement.NumRegions()
	ts := &topoState{
		version:   version,
		topo:      topo,
		placement: placement,
		velocity:  cfg.Matcher.Velocity,
		shards:    make([]*shardInstance, n),
	}
	for i := 0; i < n; i++ {
		si := &shardInstance{
			id:          i,
			ts:          ts,
			retireEvery: cfg.RetireInterval,
		}
		mcfg := cfg.Matcher
		mcfg.Bounds = placement.Region(i)
		// Hints are sized by the region's area share alone: the ghosts a
		// halo mirrors in are not counted, so TGOA's phase split (which
		// reads the hints as its total arrival count) does not move with
		// the halo's width.
		share := placement.share(i, 0)
		mcfg.Hints.ExpectedWorkers = scaleHint(mcfg.Hints.ExpectedWorkers, share)
		mcfg.Hints.ExpectedTasks = scaleHint(mcfg.Hints.ExpectedTasks, share)
		if r.haloOn {
			mcfg.CommitGate = si.gate
			mcfg.OnRetire = si.onRetire
			si.halo.byGid = make(map[uint64]int32)
		}
		m, err := sim.NewMatcher(mcfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		alg := cfg.NewAlgorithm()
		if _, ok := alg.(sim.RetirableAlgorithm); cfg.RetireInterval > 0 && !ok {
			return nil, fmt.Errorf("shard: RetireInterval set but algorithm %q does not implement sim.RetirableAlgorithm", alg.Name())
		}
		_, ts.moving = alg.(sim.DispatchingAlgorithm)
		si.sess = m.NewSession(alg)
		ts.shards[i] = si
	}
	return ts, nil
}

// scaleHint sizes a population hint to a shard's traffic share, rounding
// up so per-shard pre-sizing stays sufficient under skew.
func scaleHint(total int, share float64) int {
	if total <= 0 {
		return 0
	}
	return int(math.Ceil(float64(total) * share))
}

// NumShards returns the current number of regions.
func (r *Router) NumShards() int { return len(r.state().shards) }

// ShardOf returns the shard that owns location p (clamped to bounds, so
// out-of-area locations route to the nearest edge region) under the
// current topology.
func (r *Router) ShardOf(p geo.Point) int { return r.state().placement.Owner(p) }

// ShardBounds returns the region rectangle of shard i.
func (r *Router) ShardBounds(i int) geo.Rect { return r.state().placement.Region(i) }

// Placement returns the router's current region geometry (owner and
// halo-mirror resolution). The returned value is immutable and safe for
// concurrent use, but a Rebalance replaces it — re-read rather than cache
// across calls when topology changes are enabled.
func (r *Router) Placement() *Placement { return r.state().placement }

// AddWorker routes the worker to the shard owning its location and admits
// it there, taking only that shard's lock: a worker is never mirrored —
// with a halo configured, border tasks come to it as ghosts instead.
// admitted is the arrival time the owner session stamped — w.Arrive
// clamped up to the shard clock — so callers report deadlines consistent
// with the shard's view even when concurrent admissions raced the clock
// forward. A location that is not finite, or a NaN arrival or patience,
// is refused with ErrInvalidAdmission.
func (r *Router) AddWorker(w model.Worker) (h Handle, admitted float64, err error) {
	return r.add(workerAdmission(w))
}

// AddTask routes the task to the shard owning its location and admits it
// there. With a halo configured, a border task its own arrival leaves
// unmatched is additionally mirrored as a ghost into every neighbor session
// within its reach (each under its own lock, never nested) so cross-border
// pairs become matchable; the returned Handle always names the owner copy.
// See AddWorker for the admitted-time and refusal semantics.
func (r *Router) AddTask(t model.Task) (h Handle, admitted float64, err error) {
	return r.add(taskAdmission(t))
}

func (r *Router) add(ad admission) (Handle, float64, error) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	owner, mirrors := ts.route(&ad, nil)
	h, admitted, _, err := r.admit(ts, owner, mirrors, &ad)
	return h, admitted, err
}

// route is the one place an arrival's destination is resolved: the region
// owning its location under ts and, appended to buf, the neighbor regions
// within its reach (admission.reach) that receive a ghost copy if its own
// arrival leaves it unmatched (none for a worker, without a halo, or for an
// interior task — buf is then returned untouched, so the interior fast path
// allocates nothing).
func (ts *topoState) route(ad *admission, buf []int) (owner int, mirrors []int) {
	owner = ts.placement.Owner(ad.loc)
	return owner, ts.placement.Mirrors(ad.loc, owner, ad.reach(ts.placement.Halo(), ts.velocity, ts.moving), buf)
}

// admit is the one admission path: the direct calls, the ring drainer's
// border tasks and a migration's re-admissions all arrive here with their
// route resolved (the drainer's interior runs, ring.go, skip only the
// locking). The owner copy goes first, then — when it created a mirror
// record — one ghost per mirror region, each shard under its own lock only,
// never nested. The returned epoch is the owner session's arena epoch at
// admission — the receipt's validity window for WithdrawWorker/WithdrawTask
// (withdraw.go). Callers hold topoMu.
func (r *Router) admit(ts *topoState, owner int, mirrors []int, ad *admission) (h Handle, admitted float64, epoch uint64, err error) {
	var rec *mirror
	si := ts.shards[owner]
	func() {
		si.mu.Lock()
		defer si.mu.Unlock()
		si.drainPendingLocked()
		h, admitted, epoch, rec, err = si.installLocked(r, ad, nil, mirrors)
	}()
	if rec != nil {
		// The owner session's clamped arrival defines the task's deadline;
		// rebase the ghosts on it so every copy is pinned to the same window.
		// Ghost copies never emit lifecycle events of their own, so migrated
		// expiry suppression is owner-side only.
		ghost := *ad
		ghost.at, ghost.expiryFired = admitted, false
		for _, m := range mirrors {
			gi := ts.shards[m]
			gi.mu.Lock()
			gi.drainPendingLocked()
			gi.ghostLocked(r, &ghost, rec)
			gi.mu.Unlock()
		}
	}
	r.applyPending(ts)
	return h, admitted, epoch, err
}

// installLocked puts one copy of an arrival into this shard's session: the
// whole sequence, for live owner copies, live ghost copies and WAL replay
// alike. rec is the task's mirror record when the copy is a ghost (rec's
// owner is another shard) or an owner copy replayed from the log; for a live
// owner copy it is nil, and mirrors lists the regions its ghosts go to. Such
// a copy gets its record here, and only if its own arrival left it live: a
// task that matches at home allocates nothing for the halo. The record the
// copy ends up with is returned. Callers hold si.mu and, live, have drained
// pending withdrawals.
func (si *shardInstance) installLocked(r *Router, ad *admission, rec *mirror, mirrors []int) (Handle, float64, uint64, *mirror, error) {
	// Every copy from every door passes here, the log included: a CRC
	// proves a record is what was written, not that it was sane.
	if !ad.valid() {
		return Handle{}, 0, 0, nil, ErrInvalidAdmission
	}
	// A ghost's ref is registered BEFORE the session admission, because the
	// algorithm may commit the copy within the call itself and that commit
	// must already pass through the claim gate (live) or resolve its
	// recorded verdict (replay). Handles are dense, so the
	// about-to-be-assigned handle is the session's current count. An owner
	// copy had no sibling while it arrived, so nothing to arbitrate.
	ghost := rec != nil && int(rec.owner) != si.id
	var next int
	if ghost {
		next = ad.side.count(si.sess)
		si.putRef(next, rec)
	}
	local, admitted, err := ad.side.admit(si.sess, ad)
	if err != nil {
		if ghost {
			si.dropRef(next, rec)
		}
		if si.wal != nil {
			si.wal.dropGroup()
		}
		return Handle{}, 0, 0, nil, err
	}
	switch {
	case ghost:
		si.halo.ghost++
	case rec != nil:
		si.putRef(local, rec)
	case len(mirrors) > 0 && ad.side.live(si.sess, local):
		rec = &mirror{
			gid:        r.gids.Add(1),
			owner:      int32(si.id),
			ownerLocal: int32(local),
			deadline:   admitted + ad.window,
			copies:     make([]int32, 0, len(mirrors)+1),
		}
		rec.copies = append(rec.copies, int32(si.id))
		for _, m := range mirrors {
			rec.copies = append(rec.copies, int32(m))
		}
		si.putRef(local, rec)
	}
	// Epoch read BEFORE afterWriteLocked: the admission may itself trigger
	// a scheduled retirement, which remaps arena handles — the receipt is
	// (handle, epoch-it-was-issued-in), and a same-call retirement must
	// invalidate it rather than leave it pointing at a remapped slot.
	epoch := si.sess.Epoch()
	si.afterWriteLocked(r)
	if si.wal != nil {
		// ad as the caller passed it. An owner copy is therefore recorded
		// pre-clamp: replay re-admits the original values and the session
		// clamps them identically. A ghost is recorded post-rebase and
		// post-shrink (ghostLocked): its window depends on the owner shard's
		// stamped arrival, which this shard's own log cannot reproduce.
		si.wal.opAdmission(ad, rec, ghost)
	}
	return Handle{Shard: si.id, Local: local}, admitted, epoch, rec, nil
}

// ghostLocked admits one ghost copy of a live border task into a neighbor
// session; callers hold si.mu. A ghost is skipped once the task's claim
// settled — e.g. the owner session matched it meanwhile — and after the
// admission (which may itself commit matches and retire arenas) the claim
// is re-checked: a claim that settled during the admission was enqueued
// against the pre-admission gid table and may have missed the fresh copy,
// so the retraction is applied here. Ghosts thus never outlive a decided
// task by more than the call that raced it.
//
// The copy's deadline is pinned to the task's: the ghost session clamps the
// arrival up to its own clock, which would otherwise extend the window past
// the owner-stamped deadline under shard clock skew — and let a Strict-mode
// session commit a cross-border match after the task's true window. The
// window is shrunk by the clamp delta instead; a copy whose window has
// already closed on this shard's clock is not admitted at all.
func (si *shardInstance) ghostLocked(r *Router, ad *admission, rec *mirror) {
	if rec.state.Load() != claimFree {
		return
	}
	deadline := ad.at + ad.window
	// The clock is stable: nothing moves it before the admission.
	start := math.Max(ad.at, si.sess.Now())
	if start > deadline {
		return
	}
	pinned := *ad
	pinned.window = deadline - start
	if _, _, _, _, err := si.installLocked(r, &pinned, rec, nil); err != nil {
		return
	}
	if rec.state.Load() != claimFree {
		si.applyWithdrawLocked(rec.gid)
	}
}

// Advance drives every shard's clock to now (shard by shard, so a slow
// region never blocks admissions to the others), firing timers and
// expiries. Locks are released via defer so a panicking algorithm cannot
// wedge a shard's mutex.
func (r *Router) Advance(now float64) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	for _, si := range ts.shards {
		func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			si.drainPendingLocked()
			si.sess.Advance(now)
			si.afterWriteLocked(r)
			if si.wal != nil {
				si.wal.opAdvance(now)
			}
		}()
	}
	r.applyPending(ts)
}

// Finish finishes every shard's session; further admissions return
// sim.ErrFinished. Events (including the final expiry flush) remain
// readable. Cross-shard retractions raised by the final expiry flush are
// applied afterwards — on already-finished sessions they are inert, every
// deadline having fired, but they keep the halo tables tidy.
func (r *Router) Finish() {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	ts := r.state()
	for _, si := range ts.shards {
		func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			si.drainPendingLocked()
			si.sess.Finish()
			si.collectLocked(r)
			if si.wal != nil {
				si.wal.opFinish()
			}
		}()
	}
	r.applyPending(ts)
}

// afterWriteLocked is the post-write tail of every mutating router call:
// drain and sequence new events, then run scheduled retirement. Callers
// hold si.mu.
func (si *shardInstance) afterWriteLocked(r *Router) {
	si.collectLocked(r)
	si.maybeRetireLocked()
}

// collectLocked drains the session's new lifecycle events, assigns them
// global sequence numbers and appends them to the event log as one batch,
// then compacts the session arena. Callers hold si.mu; sequence numbers
// within a shard are strictly increasing because assignment happens under
// the shard lock. WAL replay runs through here too, with the recorded
// sequence numbers, so recovered events enter the log exactly once.
//
// This is also where halo arbitration surfaces in the stream: a mirrored
// task matched is rewritten to its owner identity and the losing copies'
// retractions enqueued; expiry events of ghost copies — and of owners whose
// task matched elsewhere first — are dropped, so the merged stream reports
// each logical object's lifecycle exactly once.
func (si *shardInstance) collectLocked(r *Router) {
	si.scratch = si.sess.DrainEvents(si.scratch[:0])
	if len(si.scratch) == 0 {
		return
	}
	si.batch = si.batch[:0]
	for _, ev := range si.scratch {
		sev := Event{Shard: si.id, SessionEvent: ev, WorkerShard: -1, TaskShard: -1}
		switch ev.Kind {
		case sim.EventMatch:
			sev.WorkerShard, sev.TaskShard = si.id, si.id
			if rec := refAt(&si.halo.ref, sev.Task); rec != nil {
				sev.TaskShard, sev.Task = int(rec.owner), int(rec.ownerLocal)
				// During replay retraction fan-out is suppressed: each
				// shard's log already carries the withdrawals it applied,
				// at the position it applied them.
				if si.rep == nil {
					r.retractLosers(si.ts, rec, si.id)
				}
				si.halo.borderMatches++
			}
		case sim.EventWorkerExpired:
			sev.WorkerShard = si.id
		case sim.EventTaskExpired:
			if !si.expiryLocked(r, &sev) {
				continue
			}
		}
		if si.rep != nil {
			sev.Seq = si.rep.popSeq()
		} else {
			sev.Seq = r.seq.Add(1) - 1
			if si.wal != nil {
				si.wal.recSeq(sev.Seq)
			}
		}
		si.batch = append(si.batch, sev)
	}
	si.sess.CompactEvents()
	if len(si.batch) > 0 {
		r.log.append(si.batch)
	}
}

// expiryLocked homes one task expiry event on its shard and, when the task
// is mirrored, arbitrates it; it reports whether the event should be
// emitted. Ghost-copy expiries never emit — the owner reports the task's
// real lifecycle. An owner expiry is matched against the claim word: in
// Strict mode it claims the task (permanently barring ghost commits — an
// expired task is gone) and, on winning, retracts every ghost; losing to a
// commit suppresses the expiry exactly when a single session would have
// (the commit came while the window was open, claimMatched). In AssumeGuide
// mode expiries never bar later matches, mirroring single-session
// semantics, so the claim is only read.
func (si *shardInstance) expiryLocked(r *Router, sev *Event) bool {
	sev.TaskShard = si.id
	rec := refAt(&si.halo.ref, sev.Task)
	if rec == nil {
		return true
	}
	outcome := expirySuppressed // a ghost copy's deadline: the owner emits the real expiry
	if int(rec.owner) == si.id {
		sev.Task = int(rec.ownerLocal)
		if si.rep != nil {
			// Replay: the recorded arbitration stands in for the claim race;
			// a winning Strict expiry reconstructs the claim word it won.
			outcome = si.rep.popExpiry()
			if outcome == expiryClaimed {
				rec.state.Store(claimExpired)
			}
		} else {
			outcome = si.ownerExpiryOutcome(r, rec)
			if si.wal != nil {
				si.wal.recExpiry(outcome)
			}
		}
	}
	if outcome == expirySuppressed {
		si.halo.suppressedExp++
		return false
	}
	return true
}

// ownerExpiryOutcome is the live arbitration expiryLocked records.
func (si *shardInstance) ownerExpiryOutcome(r *Router, rec *mirror) byte {
	if r.mode == sim.Strict && rec.state.CompareAndSwap(claimFree, claimExpired) {
		r.retractLosers(si.ts, rec, si.id)
		return expiryClaimed
	}
	if rec.state.Load() == claimMatched {
		return expirySuppressed
	}
	return expiryEmitted
}

// maybeRetireLocked runs scheduled arena retirement once the shard clock
// has moved RetireInterval past the last one. It always runs after
// collectLocked, so the event arena is fully drained and no handle-bearing
// event can straddle the epoch boundary. Callers hold si.mu.
func (si *shardInstance) maybeRetireLocked() {
	if si.retireEvery <= 0 {
		return
	}
	now := si.sess.Now()
	if now < si.lastRetire+si.retireEvery {
		return
	}
	si.sess.Retire(now)
	si.lastRetire = now
}

// Cursor returns a cursor positioned after every event emitted so far —
// the starting point for a live consumer that only wants new events.
func (r *Router) Cursor() uint64 { return r.seq.Load() }

// OldestCursor returns the lowest cursor Events still accepts — the low
// end of the retention window. A consumer whose cursor got ErrEvicted
// restarts here.
func (r *Router) OldestCursor() uint64 { return r.log.oldest.Load() }

// Events appends to dst every retained event with Seq >= since, in Seq
// order, and returns the extended slice plus the cursor to pass next
// time. The result is a gap-free prefix even under concurrent admissions:
// an event whose predecessor is still being appended by another shard is
// held back and delivered by the next poll. A cursor above Cursor() is
// clamped to it. If since falls below the retention window the result is
// ErrEvicted: events that old were dropped, restart from OldestCursor.
func (r *Router) Events(since uint64, dst []Event) ([]Event, uint64, error) {
	return r.EventsLimit(since, 0, dst)
}

// EventsLimit is Events bounded to at most limit events per call (zero
// or negative means unlimited), so a cold or recovered cursor pages
// through a large backlog in bounded batches; the returned cursor resumes
// right after the last returned event.
func (r *Router) EventsLimit(since uint64, limit int, dst []Event) ([]Event, uint64, error) {
	return r.log.read(min(since, r.seq.Load()), false, limit, dst)
}

// EventsFromOldest is EventsLimit anchored at the oldest retained cursor,
// atomically, so a concurrent eviction can never produce ErrEvicted —
// the primitive behind cursor-less polling ("give me what is retained").
func (r *Router) EventsFromOldest(limit int, dst []Event) ([]Event, uint64) {
	dst, next, _ := r.log.read(0, true, limit, dst)
	return dst, next
}

// Matches is Events filtered to commits and addressed by match ordinal:
// the match with ordinal k is the k-th committed pair in Seq order (from
// 0), so ordinals double as cursors exactly like Seq does for Events. It
// appends the retained matches with ordinal >= since, at most limit of
// them (zero or negative means unlimited), and returns the ordinal to
// pass next time. A cursor above MatchCount is clamped to it; one below
// OldestMatch gets ErrEvicted. The window is the event retention window:
// a match is readable exactly as long as its event is.
func (r *Router) Matches(since uint64, limit int, dst []Event) ([]Event, uint64, error) {
	return r.log.matches(since, false, limit, dst)
}

// MatchesFromOldest is Matches anchored at OldestMatch, atomically (see
// EventsFromOldest).
func (r *Router) MatchesFromOldest(limit int, dst []Event) ([]Event, uint64) {
	dst, next, _ := r.log.matches(0, true, limit, dst)
	return dst, next
}

// MatchCount returns the number of matches readable or already evicted —
// the ordinal the next visible match will get.
func (r *Router) MatchCount() uint64 { return r.log.matchCount() }

// OldestMatch returns the lowest ordinal Matches still accepts: the
// number of matches that have left the retention window.
func (r *Router) OldestMatch() uint64 { return r.log.oldestMatch() }

// ShardStats snapshots shard i of the current topology.
func (r *Router) ShardStats(i int) Stats {
	return r.shardStatsOf(r.state(), i)
}

func (r *Router) shardStatsOf(ts *topoState, i int) Stats {
	si := ts.shards[i]
	si.mu.Lock()
	defer si.mu.Unlock()
	return Stats{
		Shard:       si.id,
		Bounds:      ts.placement.Region(si.id),
		LiveWorkers: si.sess.NumWorkers(),
		LiveTasks:   si.sess.NumTasks(),
		Now:         si.sess.Now(),
		ArrivalRate: si.rateEWMA,
		Totals: Totals{
			Workers: si.sess.AdmittedWorkers(),
			Tasks:   si.sess.AdmittedTasks(),
			Matches: si.sess.Matches(),
			// The session counts every deadline it fires; deadlines of task
			// copies whose lifecycle concluded elsewhere were dropped from the
			// stream (expiryLocked) and are subtracted here so the snapshot
			// counts each logical expiry exactly once, on its owner shard.
			ExpiredWorkers:   si.sess.ExpiredWorkers(),
			ExpiredTasks:     si.sess.ExpiredTasks() - si.halo.suppressedExp,
			Attempted:        si.sess.Attempted(),
			Rejected:         si.sess.Rejected(),
			GhostTasks:       si.halo.ghost,
			WithdrawnWorkers: si.sess.WithdrawnWorkers(),
			WithdrawnTasks:   si.sess.WithdrawnTasks(),
			ClaimsLost:       si.halo.claimsLost,
			BorderMatches:    si.halo.borderMatches,
		},
	}
}

// Totals returns the router-wide lifetime counts; see Totals.
func (r *Router) Totals() Totals {
	ts := r.state()
	t := ts.carried
	t.add(r.shardTotals(ts), 1)
	return t
}

// shardTotals sums the counters of ts's own sessions.
func (r *Router) shardTotals(ts *topoState) Totals {
	var t Totals
	for i := range ts.shards {
		t.add(r.shardStatsOf(ts, i).Totals, 1)
	}
	return t
}

// Retire compacts every shard's arenas now, regardless of the
// RetireInterval schedule: each shard, under its own lock, drains its
// events into the log and retires objects provably dead at or before
// horizon (clamped per shard to that shard's clock). It returns the total
// workers and tasks dropped. Callers that only want the scheduled
// behaviour never need this; it exists for operational "compact now"
// hooks and tests.
func (r *Router) Retire(horizon float64) (workers, tasks int) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	for _, si := range r.state().shards {
		func() {
			si.mu.Lock()
			defer si.mu.Unlock()
			si.drainPendingLocked()
			si.collectLocked(r)
			w, t := si.sess.Retire(horizon)
			si.lastRetire = si.sess.Now()
			if si.wal != nil {
				si.wal.opRetire(horizon)
			}
			workers += w
			tasks += t
		}()
	}
	return workers, tasks
}

// StatsAll appends a snapshot of every shard to dst and returns it. The
// snapshot is taken against one topology state, so the result is always
// internally consistent even across a concurrent Rebalance.
func (r *Router) StatsAll(dst []Stats) []Stats {
	ts := r.state()
	for i := range ts.shards {
		dst = append(dst, r.shardStatsOf(ts, i))
	}
	return dst
}
