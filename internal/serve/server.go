// Package serve is the ftoa-serve server: sharded open-world ftoa matching
// over HTTP/JSON and the binary wire protocol. The service area is
// partitioned into a Shards NxM grid of independent sessions, workers and
// tasks are routed by location as they arrive, the matching algorithm runs
// on every arrival, and the merged lifecycle event stream — commits AND
// the deadline expiries of objects that leave unserved — is served back
// behind a sequence cursor.
//
//	POST /workers          {"x":10,"y":10,"patience":300} -> {"worker":0,"shard":0,"time":1.5}
//	POST /tasks            {"x":11,"y":10,"expiry":60}    -> {"task":0,"shard":0,"time":2.1}
//	GET  /events?since=N   -> {"events":[{"seq":0,"shard":0,"kind":"match","worker":0,"task":0,"time":2.1}],"next":1}
//	GET  /matches          -> {"matches":[{"worker":0,"task":0,"shard":0,"time":2.1}],"count":1,"next":1}
//	GET  /matches?since=N  -> the match events of the page /events?since=N returns, same "next"
//	GET  /stats            -> global aggregates plus a per-shard breakdown
//	GET  /healthz          -> ok
//
// Event kinds are "match", "worker-expired" and "task-expired"; expiries
// carry -1 on the uninvolved side. /events and /matches read one log that
// keeps the most recent Retention events per base-grid shard; /matches
// is the /events page filtered to commits, with the same Seq cursor, so
// a page may hold no match while "next" advances; its "count" is the
// lifetime match total. A cursor pointing below the window gets 410 Gone
// and restarts from the "next" the 410 carries.
//
// Guided algorithms are servable: Algorithm polar|polarop|hybrid with
// GuidePath pointing at a per-cell count history CSV (the format ftoa-gen
// -counts emits). The server trains HP-MSI (the paper's Table 5 winner) on
// all days but the last and builds the offline guide from its forecasts. By
// default (GuideAnchor wallclock) the guide covers a full week — one
// forecast per weekday — and slot selection is anchored to the wall-clock
// day-of-week and time-of-day at boot, wrapping weekly, so multi-day
// deployments keep loading the right per-slot guide; GuideAnchor uptime
// restores the legacy single-day guide over the first Horizon seconds of
// uptime.
//
// Times are seconds since the server started; arrivals are stamped on
// admission. Each shard's session is single-writer behind its own lock,
// so disjoint regions admit concurrently — sharding, not concurrent
// writes to one session, is the scaling story. With Halo set, tasks near
// a region border are additionally mirrored into the neighboring sessions
// whose workers could serve them (and retracted the moment their original
// is spoken for), recovering the cross-border matches disjoint regions
// lose; /stats breaks the ghost traffic out per shard.
//
// Memory is bounded for arbitrarily long uptimes: besides the
// retention-bounded event log, every shard retires its session arenas on
// the Retire interval, compacting away matched and expired objects and
// keeping the per-shard footprint proportional to the live population.
// Handles reported at admission are therefore only stable until the
// object dies; the /stats breakdown reports both lifetime (workers/tasks)
// and live (live_workers/live_tasks) counts.
//
// With WALDir set the server is durable: every shard appends its
// admissions, withdrawals and match outcomes to a per-shard write-ahead
// log (fsync policy per WALSync) and replays it at boot, reconstructing
// the exact pre-crash state — same matched set, same event stream, same
// deadlines. While replay runs the port can already be bound behind a
// BootGate, which answers every request (including /healthz) 503
// "recovering"; Shutdown drains in-flight requests, checkpoints the live
// population and flushes the log.
//
// Every arrival, HTTP or wire, is admitted through its shard's admission
// lane (shard.Admitter: one buffered channel and one drainer per shard),
// and a full lane is the one overload signal: 503 + Retry-After over HTTP
// (counted in /stats "shed"), a BUSY result on the wire.
package serve

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

// Server owns the shard router, the admission lanes in front of it and,
// once started, the tick loop and the wire listener.
type Server struct {
	cfg    Config
	router *ftoa.ShardRouter
	// clock returns the session-time value of "now" (seconds since the
	// server started); tests substitute a manual clock.
	clock func() float64
	// minAdvance throttles the read-path advance: a GET only walks all
	// shard locks when the clock moved at least this far (half the tick
	// interval) since the last walk, so polling traffic cannot convoy
	// the whole grid. lastAdvance holds the float64 bits of the clock
	// value of the last walk.
	minAdvance  float64
	lastAdvance atomic.Uint64

	// admitter is the shared batched admission front: every arrival —
	// HTTP POST or wire batch entry — is enqueued to its shard's admission
	// lane (a buffered channel) and admitted by that lane's single drainer,
	// so producers never touch a shard lock and backpressure (a full
	// lane, or a router mid-rebalance) is an immediate refusal. shed counts
	// the refusals answered 503 over HTTP; the wire listener counts its
	// BUSY results.
	admitter *ftoa.ShardAdmitter
	shed     atomic.Uint64

	// rebal, when non-nil, is the adaptive-topology supervisor; it is
	// ticked only from the tick loop (it is single-goroutine).
	rebal *ftoa.RebalanceSupervisor

	// recovery holds the boot replay summary (nil without a WAL) and
	// checkpointed the outcome of the last checkpoint this process made
	// (Shutdown).
	recovery     *ftoa.ShardRecoveryInfo
	checkpointed atomic.Pointer[checkpointOutcome]

	// What Shutdown stops, when started: the tick loop (tickDone closes
	// once the loop has returned) and the wire listener.
	stopTick chan struct{}
	tickDone chan struct{}
	wire     *wireServer
}

// checkpointOutcome is one Router.Checkpoint as /stats reports it; err is
// empty when the generation was sealed and what it supersedes removed.
type checkpointOutcome struct {
	info *ftoa.ShardRebalanceInfo // nil when the checkpoint could not start
	err  string
}

// New builds the server cfg describes: it trains the guide pipeline when
// the algorithm needs one and, with a WAL, replays the log — which can
// take a while; see BootGate.
func New(cfg Config) (*Server, error) {
	mode, walPolicy, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	fc, err := loadForecast(cfg)
	if err != nil {
		return nil, err
	}
	mk, err := newAlgorithm(cfg, fc)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	s := &Server{
		cfg:        cfg,
		clock:      func() float64 { return time.Since(started).Seconds() },
		minAdvance: cfg.Tick.Seconds() / 2,
	}
	s.lastAdvance.Store(math.Float64bits(math.Inf(-1)))
	shardCfg := ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     mode,
			Velocity: cfg.Velocity,
			Bounds:   ftoa.NewRect(cfg.Bounds[0], cfg.Bounds[1], cfg.Bounds[2], cfg.Bounds[3]),
		},
		Cols: cfg.Shards[0],
		Rows: cfg.Shards[1],
		// Halo is a reach window in seconds; the router wants a distance.
		Halo:           ftoa.HaloForWindow(cfg.Velocity, cfg.Halo),
		NewAlgorithm:   mk,
		Retention:      cfg.Retention,
		RetireInterval: cfg.Retire.Seconds(),
	}
	if cfg.WALDir == "" {
		s.router, err = ftoa.NewShardRouter(shardCfg)
		if err != nil {
			return nil, err
		}
	} else {
		shardCfg.WAL = &ftoa.WALOptions{Dir: cfg.WALDir, Policy: walPolicy}
		// Replay appends every recovered event to the router's event log,
		// so /events and /matches come back along with the router.
		s.router, s.recovery, err = ftoa.RecoverShardRouter(shardCfg)
		if err != nil {
			return nil, err
		}
		if off := s.recovery.MaxClock; off > 0 && !math.IsInf(off, 0) {
			// Session time must stay monotone across the restart: resume the
			// clock where the dead process left it, so recovered deadlines
			// (admission time + patience/expiry) keep their meaning instead
			// of all expiring relative to a rewound zero.
			s.clock = func() float64 { return off + time.Since(started).Seconds() }
		}
		if ri := s.recovery; ri.Recovered {
			log.Printf("ftoa-serve: recovered %d events (%d matches) from %d WAL segment(s), %d torn byte(s) truncated; resuming at t=%.3f generation %d; recover_ms=%.1f recover_us_per_event=%.2f wal_bytes_read=%d skipped_generations=%d from_checkpoint=%v",
				ri.Events, ri.Matches, ri.Segments, ri.TornBytes, ri.MaxClock, ri.Generation,
				float64(ri.Duration.Microseconds())/1e3, recoverUsPerEvent(ri), ri.BytesRead, ri.SkippedGenerations, ri.FromCheckpoint)
		}
	}
	for _, line := range haloBootReport(s.router.Placement()) {
		log.Print(line)
	}
	s.admitter = ftoa.NewShardAdmitter(s.router, ftoa.ShardAdmitterConfig{})
	if cfg.Rebalance {
		rcfg := ftoa.RebalanceConfig{
			SplitRate: cfg.RebalSplit,
			MergeRate: cfg.RebalMerge,
			MaxDepth:  rebalanceDepth,
			Cooldown:  rebalanceCooldown.Seconds(),
			Tau:       rebalanceTau.Seconds(),
		}
		if s.rebal, err = ftoa.NewRebalanceSupervisor(s.router, rcfg); err != nil {
			return nil, err
		}
		log.Printf("ftoa-serve: adaptive topology: split > %g/s, merge < %g/s, depth <= %d, cooldown %s, tau %s",
			rcfg.SplitRate, rcfg.MergeRate, rcfg.MaxDepth, rebalanceCooldown, rebalanceTau)
	}
	return s, nil
}

// The supervisor's fixed policy beside the two rates: rebalanceDepth caps
// how many times it may quarter one base grid cell (a hot cell becomes at
// most 16 regions), rebalanceCooldown is the minimum interval between two
// topology changes and rebalanceTau the arrival-rate EWMA time constant
// (larger is smoother and slower to react).
const (
	rebalanceDepth    = 2
	rebalanceCooldown = 10 * time.Second
	rebalanceTau      = 5 * time.Second
)

// recoverUsPerEvent is the recovery's wall time per recovered event, in
// microseconds (0 when nothing was recovered).
func recoverUsPerEvent(ri *ftoa.ShardRecoveryInfo) float64 {
	if ri.Events == 0 {
		return 0
	}
	return float64(ri.Duration.Microseconds()) / float64(ri.Events)
}

// Shutdown is the graceful stop. Producers go first — the tick loop, the
// wire connections, then hs, the HTTP server carrying Handler when there
// is one (in-flight requests get until ctx ends) — so nothing enqueues to
// the admission lanes any more; then the lanes drain into their shards;
// then, with a WAL, the live population is checkpointed into a sealed
// generation of its own, so the next boot replays what is alive instead
// of everything this process ever admitted; then the WAL closes. Only the
// close can fail the shutdown: a checkpoint that does not seal leaves the
// generations before it in place, the next boot replays those, and the
// failure is logged and kept for /stats.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	if s.stopTick != nil {
		close(s.stopTick)
		<-s.tickDone
	}
	if s.wire != nil {
		s.wire.close()
	}
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("ftoa-serve: shutdown: %v", err)
		}
	}
	s.admitter.Close()
	if s.recovery != nil {
		s.checkpoint()
	}
	return s.router.WALClose()
}

// checkpoint seals the live population as a WAL generation of its own
// (Router.Checkpoint) and records the outcome.
func (s *Server) checkpoint() {
	info, err := s.router.Checkpoint()
	out := &checkpointOutcome{info: info}
	switch {
	case err != nil:
		out.err = err.Error()
	case !info.Sealed:
		out.err = fmt.Sprintf("generation %d not sealed: %v", info.WALGeneration, s.router.WALErr())
	case info.RemoveErr != nil:
		out.err = info.RemoveErr.Error()
	}
	s.checkpointed.Store(out)
	if info != nil {
		log.Printf("ftoa-serve: checkpoint: generation %d sealed=%v, %d live objects, checkpoint_ms=%.1f, %d superseded segment(s) removed",
			info.WALGeneration, info.Sealed, info.MigratedWorkers+info.MigratedTasks,
			float64(info.Duration.Microseconds())/1e3, info.SegmentsRemoved)
	}
	if out.err != "" {
		log.Printf("ftoa-serve: checkpoint: %s (the generations before it stay the restart's source)", out.err)
	}
}

// StartWire serves the binary wire protocol (docs/wire.md) on ln until
// Shutdown. Call it before the handler goes live so /stats never races
// the field write.
func (s *Server) StartWire(ln net.Listener) {
	s.wire = newWireServer(s, ln)
	log.Printf("ftoa-serve: wire protocol v%d on %s (max-conns=%d dedup=%d)",
		wire.Version, ln.Addr(), s.cfg.WireMaxConns, s.cfg.WireDedupWindow)
}

// StartTick runs the tick loop every Config.Tick until Shutdown. The loop
// advances the shard clocks so timer-driven algorithms make progress —
// and deadlines expire — during arrival lulls; stopping it first keeps a
// final advance from racing the checkpoint and the WAL close. It is also
// the rebalance supervisor's single driving goroutine: each tick samples
// the arrival-rate EWMAs and applies at most one topology change.
func (s *Server) StartTick() {
	s.stopTick, s.tickDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.tickDone)
		t := time.NewTicker(s.cfg.Tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.tick()
			case <-s.stopTick:
				return
			}
		}
	}()
}

func (s *Server) tick() {
	s.advance()
	if s.rebal == nil {
		return
	}
	switch info, err := s.rebal.Tick(s.now()); {
	case err != nil:
		log.Printf("ftoa-serve: rebalance: %v", err)
	case info != nil:
		log.Printf("ftoa-serve: rebalance v%d: %s -> %s (%d regions, migrated %d workers + %d tasks, WAL gen %d)",
			info.Version, info.From, info.To, info.Regions,
			info.MigratedWorkers, info.MigratedTasks, info.WALGeneration)
	}
}

// now is the session clock value for the current instant.
func (s *Server) now() float64 { return s.clock() }

// advance drives every shard's timers and expiries from wall time; it is
// the live analogue of the replay loop's event clock and what makes batch
// algorithms (GR) flush — and deadlines expire — between arrivals. It is
// throttled to minAdvance of clock movement (the tick loop already bounds
// staleness to one tick); the CAS dedups walkers racing for the same
// clock window, though two walks may still overlap across windows —
// safe, since Router.Advance is concurrent-safe and monotone per shard.
func (s *Server) advance() {
	now := s.now()
	last := s.lastAdvance.Load()
	if now-math.Float64frombits(last) < s.minAdvance {
		return
	}
	if !s.lastAdvance.CompareAndSwap(last, math.Float64bits(now)) {
		return // a concurrent request is already walking the shards
	}
	s.router.Advance(now)
}

// haloBootReport renders the boot-time halo geometry summary: one line
// per shard with its region size and effective halo fraction — the task
// ghosts mirrored in from the band within 2*halo around the region,
// relative to the region's own task share (an upper bound: a task's reach
// is also capped at its expiry×velocity; workers are never mirrored) —
// preceded by a warning for every shard whose region the halo reach
// window rivals. At 4*halo >= the region's smaller dimension the bands of
// its two sides cover the entire region: every task there is mirrored
// somewhere, and sharding degenerates toward replicating the tasks.
func haloBootReport(p *ftoa.ShardPlacement) []string {
	n := p.NumRegions()
	halo := p.Halo()
	if halo <= 0 || n <= 1 {
		return nil
	}
	var lines []string
	var total float64
	for i := 0; i < n; i++ {
		r := p.Region(i)
		total += r.Width() * r.Height()
	}
	for i := 0; i < n; i++ {
		r := p.Region(i)
		if 4*halo >= min(r.Width(), r.Height()) {
			lines = append(lines, fmt.Sprintf(
				"ftoa-serve: WARNING: halo reach %g rivals shard %d region %gx%g (4*halo >= min dimension): the bands tasks are mirrored from cover the whole region, so nearly every task is mirrored; use fewer shards or a smaller -halo",
				halo, i, r.Width(), r.Height()))
		}
	}
	for i := 0; i < n; i++ {
		r := p.Region(i)
		area := r.Width() * r.Height()
		ghost := 0.0
		if area > 0 {
			ghost = p.HintShare(i)*total/area - 1
		}
		lines = append(lines, fmt.Sprintf(
			"ftoa-serve: shard %d region %gx%g halo reach %g: effective halo fraction %.1f%% (task ghosts over own tasks, at most)",
			i, r.Width(), r.Height(), halo, 100*ghost))
	}
	return lines
}

// guideBootWarning renders the boot warning for a served guide that
// collapsed to one area although its history has several: no whole block
// of history areas short of the bounds is reach (2·Dr·v) long, so every
// object falls in the same area and POLAR, POLAR-OP and Hybrid plan by
// time slot alone. It returns "" when there is nothing to warn about.
func guideBootWarning(history, served *ftoa.Grid, reach float64) string {
	if history.NumCells() == 1 || served.NumCells() > 1 {
		return ""
	}
	b := history.Bounds
	return fmt.Sprintf(
		"ftoa-serve: WARNING: guide on 1x1 areas (history %dx%d): 2 x -guide-expiry x -velocity = %g exceeds the %gx%g bounds (no smaller whole block of history areas is that long), so POLAR, POLAR-OP and Hybrid run with no spatial plan; lower -guide-expiry",
		history.Cols, history.Rows, reach, b.Width(), b.Height())
}

// BootGate is what the listener serves while New is still replaying the
// WAL: the port is bound (and /healthz answering) the moment the process
// starts, but every request gets 503 until Ready swaps in the real
// handler. Readiness is therefore observable — a deployment can
// distinguish "recovering" from "dead" — without delaying the bind past a
// long replay.
type BootGate struct {
	h atomic.Pointer[http.Handler]
}

func NewBootGate() *BootGate {
	g := &BootGate{}
	g.Ready(http.HandlerFunc(recovering))
	return g
}

// Ready makes h answer every request from now on.
func (g *BootGate) Ready(h http.Handler) { g.h.Store(&h) }

func (g *BootGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*g.h.Load()).ServeHTTP(w, r)
}

func recovering(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	if r.URL.Path == "/healthz" {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "recovering: WAL replay in progress")
}
