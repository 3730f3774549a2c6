// Command ftoa-serve exposes sharded open-world ftoa matching over
// HTTP/JSON: the service area is partitioned into a -shards NxM grid of
// independent sessions, workers and tasks are routed by location as they
// POST in, the matching algorithm runs on every arrival, and the merged
// lifecycle event stream — commits AND the deadline expiries of objects
// that leave unserved — is served back behind a sequence cursor.
//
//	POST /workers          {"x":10,"y":10,"patience":300} -> {"worker":0,"shard":0,"time":1.5}
//	POST /tasks            {"x":11,"y":10,"expiry":60}    -> {"task":0,"shard":0,"time":2.1}
//	GET  /events?since=N   -> {"events":[{"seq":0,"shard":0,"kind":"match","worker":0,"task":0,"time":2.1}],"next":1}
//	GET  /matches          -> {"matches":[{"worker":0,"task":0,"shard":0,"time":2.1}],"count":1}
//	GET  /matches?since=N  -> matches committed after the first N (poll cursor)
//	GET  /stats            -> global aggregates plus a per-shard breakdown
//	GET  /healthz          -> ok
//
// Event kinds are "match", "worker-expired" and "task-expired"; expiries
// carry -1 on the uninvolved side. /events and /matches read one log that
// keeps the most recent -retention events per base-grid shard; /matches
// is that log filtered to commits, its cursor counting matches. A cursor
// pointing below the window gets 410 Gone and restarts from the "next"
// the 410 carries.
//
// Guided algorithms are servable: -alg polar|polarop|hybrid with -guide
// pointing at a per-cell count history CSV (the format ftoa-gen -counts
// emits). The server trains HP-MSI (the paper's Table 5 winner) on all
// days but the last and builds the offline guide from its forecasts. By
// default (-guide-anchor wallclock) the guide covers a full week — one
// forecast per weekday — and slot selection is anchored to the wall-clock
// day-of-week and time-of-day at boot, wrapping weekly, so multi-day
// deployments keep loading the right per-slot guide; -guide-anchor
// uptime restores the legacy single-day guide over the first -horizon
// seconds of uptime.
//
// Times are seconds since the server started; arrivals are stamped on
// admission. Each shard's session is single-writer behind its own lock,
// so disjoint regions admit concurrently — sharding, not concurrent
// writes to one session, is the scaling story. With -halo set, arrivals
// near a region border are additionally mirrored into the neighboring
// sessions they could feasibly match in (and retracted the moment their
// original is spoken for), recovering the cross-border matches disjoint
// regions lose; /stats breaks the ghost traffic out per shard.
//
// Memory is bounded for arbitrarily long uptimes: besides the
// retention-bounded event log, every shard retires its session arenas on
// the -retire interval (on by default), compacting away matched and
// expired objects and keeping the per-shard footprint proportional to
// the live population. Handles reported at admission are therefore only
// stable until the object dies; the /stats breakdown reports both
// lifetime (workers/tasks) and live (live_workers/live_tasks) counts.
//
// With -wal set the server is durable: every shard appends its
// admissions, withdrawals and match outcomes to a per-shard
// write-ahead log (fsync policy per -wal-sync) and replays it at boot,
// reconstructing the exact pre-crash state — same matched set, same
// event stream, same deadlines. While replay runs the port is already
// bound but every request (including /healthz) answers 503
// "recovering"; SIGTERM/SIGINT drains in-flight requests and flushes
// the log before exiting. -admit-queue bounds each shard's admission
// backlog, shedding excess arrivals with 503 + Retry-After; /stats
// reports the shed counts and the WAL status.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

type config struct {
	algorithm string
	window    float64
	mode      string
	velocity  float64
	bounds    [4]float64
	tick      time.Duration
	shards    [2]int // cols, rows
	retention int
	retire    time.Duration // per-shard arena retirement interval; 0 disables
	// halo is the cross-shard matching reach window in seconds: border
	// arrivals within velocity×halo of a neighboring region are mirrored
	// into it as ghosts and arbitrated so no object matches twice. Zero
	// keeps regions disjoint (the pre-halo hyperlocal behavior).
	halo float64

	// Guide pipeline (polar/polarop/hybrid only).
	guidePath     string // counts CSV; "" = no guide
	guideGrid     [2]int // cols, rows; 0,0 = infer a square grid
	guideDow0     int    // weekday (0-6) of the history's first day
	horizon       float64
	guidePatience float64
	guideExpiry   float64
	// Durability (off unless walDir is set): every shard records its
	// admissions, withdrawals and match outcomes in an append-only log
	// under walDir and replays it at boot, so a crashed or killed server
	// restarts with its matched set, event stream and deadlines intact.
	walDir          string
	walSync         string        // always, interval or none
	walSyncInterval time.Duration // group-commit window for walSync=interval; 0 = default

	// admitQueue bounds the per-shard admission backlog: when more than
	// this many POSTs are simultaneously in flight against one shard,
	// further arrivals to it are shed with 503 + Retry-After instead of
	// convoying on the shard lock. 0 disables shedding.
	admitQueue int

	// ring and batch size the shared per-shard admission rings every
	// arrival — HTTP POST or wire batch — goes through (shard.Admitter).
	// Zero picks the admitter defaults (1024 / 256).
	ring, batch int

	// Adaptive topology (-rebalance): when enabled a supervisor watches
	// per-region arrival-rate EWMAs and splits hot regions into a finer
	// sub-grid / merges cold sibling quads back, migrating live state and
	// WAL-logging each change as a topology epoch (docs/rebalance.md).
	rebalance     bool
	rebalSplit    float64       // split threshold, arrivals/sec per region
	rebalMerge    float64       // merge floor, combined arrivals/sec per sibling quad
	rebalDepth    int           // max quarterings per base cell
	rebalCooldown time.Duration // min time between topology changes
	rebalTau      time.Duration // arrival-rate EWMA time constant
	// rebalForecast feeds the supervisor an HP-MSI demand forecast built
	// from the -guide count history, so it can split ahead of a predicted
	// rush instead of trailing the measured EWMA.
	rebalForecast bool

	// guideAnchor selects how uptime seconds map into guide slots:
	// "uptime" (the legacy behavior) assumes the first -horizon seconds
	// of uptime are the served day, clamping to the last slot forever
	// after; "wallclock" builds a 7-day week guide (one forecast per
	// weekday) and anchors slot selection to the wall-clock time of day
	// at boot, wrapping weekly, so multi-day deployments keep loading the
	// right per-slot guide.
	guideAnchor string
	// anchorOffset is the precomputed seconds-into-week (scaled to the
	// served day length -horizon) of the boot instant; see
	// wallclockOffset. Only meaningful with guideAnchor == "wallclock".
	anchorOffset float64
}

// server owns the shard router and a bounded match-history view of its
// merged event stream.
type server struct {
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
	// HTTP POST or wire batch entry — is enqueued to a per-shard MPSC
	// ring and admitted by that ring's single drainer, so producers never
	// touch a shard lock and backpressure (a full ring, or a router
	// mid-rebalance) is an immediate BUSY refusal. The server owns its
	// lifecycle: main closes it after the listeners drain and before the
	// WAL closes.
	admitter *ftoa.ShardAdmitter

	// rebal, when non-nil, is the adaptive-topology supervisor; it is
	// ticked only from tickLoop (it is single-goroutine).
	rebal *ftoa.RebalanceSupervisor

	// Overload shedding: inflight counts the POSTs currently holding (or
	// queued on) each lane's admission path; arrivals beyond admitLimit
	// are shed with 503 + Retry-After and counted in shed for /stats.
	// admitLimit 0 disables shedding. Both arrays are indexed by LANE —
	// shard id modulo the initial region count — because a rebalance can
	// grow the region count while these arrays (like the admitter's
	// rings) stay fixed; on a static topology lane == shard.
	admitLimit int
	inflight   []atomic.Int32
	shed       []atomic.Uint64

	// walled reports whether the router is WAL-backed; recovery holds
	// the boot replay summary (nil when walled is false) and checkpointed
	// the outcome of the last checkpoint this process made (shutdown).
	walled       bool
	recovery     *ftoa.ShardRecoveryInfo
	checkpointed atomic.Pointer[checkpointOutcome]

	// What shutdown stops, when main started it: the HTTP server and the
	// tick loop (tickDone closes once the loop has returned).
	http     *http.Server
	stopTick chan struct{}
	tickDone chan struct{}

	// wire is the binary-protocol listener (-listen-wire), nil when
	// disabled; kept here so /stats can report its counters.
	wire *wireServer
}

// checkpointOutcome is one Router.Checkpoint as /stats reports it; err is
// empty when the generation was sealed and what it supersedes removed.
type checkpointOutcome struct {
	info *ftoa.ShardRebalanceInfo // nil when the checkpoint could not start
	err  string
}

// maxEventsPage caps one GET /events or GET /matches response; pollers
// page via "next".
const maxEventsPage = 10000

// maxEventsWait caps the ?wait= long-poll window on GET /events so a
// stuck client cannot pin a handler indefinitely; clients wanting a
// longer watch re-issue the poll (their cursor makes that gap-free).
const maxEventsWait = 30 * time.Second

type matchJSON struct {
	Worker int `json:"worker"`
	Task   int `json:"task"`
	// Shard is the shard whose session committed the pair; worker_shard
	// and task_shard are the endpoints' owner shards, which differ from
	// it for cross-border (halo) matches.
	Shard       int     `json:"shard"`
	WorkerShard int     `json:"worker_shard"`
	TaskShard   int     `json:"task_shard"`
	Time        float64 `json:"time"`
}

type eventJSON struct {
	Seq         uint64  `json:"seq"`
	Shard       int     `json:"shard"`
	Kind        string  `json:"kind"`
	Worker      int     `json:"worker"`
	Task        int     `json:"task"`
	WorkerShard int     `json:"worker_shard"`
	TaskShard   int     `json:"task_shard"`
	Time        float64 `json:"time"`
}

type workerReq struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Patience float64 `json:"patience"`
}

type taskReq struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Expiry float64 `json:"expiry"`
}

// buildAlgorithm resolves the -alg flag into a per-shard factory, loading
// and training the guide pipeline when the algorithm needs one.
func buildAlgorithm(cfg config) (func() ftoa.Algorithm, error) {
	switch cfg.algorithm {
	case "greedy":
		return func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() }, nil
	case "gr":
		if cfg.window <= 0 {
			return nil, fmt.Errorf("gr window must be positive, got %v", cfg.window)
		}
		return func() ftoa.Algorithm { return ftoa.NewGR(cfg.window) }, nil
	case "polar", "polarop", "hybrid":
		if cfg.guidePath == "" {
			return nil, fmt.Errorf("algorithm %q needs -guide counts.csv", cfg.algorithm)
		}
		f, err := os.Open(cfg.guidePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := guideFromCounts(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("building guide from %s: %w", cfg.guidePath, err)
		}
		// The guide is read-only: one instance is shared by every
		// shard's algorithm.
		switch cfg.algorithm {
		case "polar":
			return func() ftoa.Algorithm { return ftoa.NewPOLAR(g) }, nil
		case "polarop":
			return func() ftoa.Algorithm { return ftoa.NewPOLAROP(g) }, nil
		default:
			return func() ftoa.Algorithm { return ftoa.NewHybrid(g) }, nil
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want greedy, gr, polar, polarop or hybrid)", cfg.algorithm)
	}
}

// guideFromCounts runs the paper's offline pipeline over a recorded count
// history: load the per-(day, slot, area) CSV, train HP-MSI on every day
// but the last, and build the guide (Algorithm 1) over the server's
// bounds. With -guide-anchor uptime the guide covers one forecast day
// mapped onto the first -horizon seconds of uptime; with wallclock it
// covers a full week — one forecast per weekday, each weekday served by
// the latest history day with that weekday — addressed by an anchored,
// weekly-wrapping slotting so any uptime instant resolves to the right
// wall-clock (day-of-week, time-of-day) slot.
func guideFromCounts(r io.Reader, cfg config) (*ftoa.Guide, error) {
	days, slots, areas, wCounts, tCounts, weather, err := ftoa.LoadCountsCSV(r)
	if err != nil {
		return nil, err
	}
	if days < 3 {
		return nil, fmt.Errorf("count history has %d day(s); need >= 3 (HP-MSI trains on all but the last, forecasts the last)", days)
	}
	cols, rows := cfg.guideGrid[0], cfg.guideGrid[1]
	if cols == 0 && rows == 0 {
		side := int(math.Round(math.Sqrt(float64(areas))))
		if side*side != areas {
			return nil, fmt.Errorf("%d areas is not square; pass -guide-grid CxR", areas)
		}
		cols, rows = side, side
	}
	if cols*rows != areas {
		return nil, fmt.Errorf("-guide-grid %dx%d does not match the history's %d areas", cols, rows, areas)
	}
	// Day-of-week labels feed HP-MSI's weekday seasonality; -guide-dow0
	// anchors the history's first day so a trace starting mid-week is
	// not silently rotated.
	dow := make([]int, days)
	for i := range dow {
		dow[i] = (cfg.guideDow0 + i) % 7
	}
	// Fit one predictor per side (training excludes the last day), then
	// predict whichever history days the anchor mode needs.
	fit := func(counts []int) (*ftoa.Series, ftoa.Predictor, error) {
		s, err := ftoa.NewSeries(days, slots, areas, counts, weather, dow)
		if err != nil {
			return nil, nil, err
		}
		p := ftoa.NewHPMSI()
		if err := p.Fit(s, days-1); err != nil {
			return nil, nil, err
		}
		return s, p, nil
	}
	wSeries, wPredictor, err := fit(wCounts)
	if err != nil {
		return nil, err
	}
	tSeries, tPredictor, err := fit(tCounts)
	if err != nil {
		return nil, err
	}

	var wPred, tPred []int
	var slotting *ftoa.Slotting
	switch cfg.guideAnchor {
	case "", "uptime":
		wPred = ftoa.ToCounts(ftoa.PredictDay(wPredictor, wSeries, days-1))
		tPred = ftoa.ToCounts(ftoa.PredictDay(tPredictor, tSeries, days-1))
		slotting = ftoa.NewSlotting(cfg.horizon, slots)
	case "wallclock":
		src := weekdaySources(dow)
		wPred = make([]int, 0, 7*slots*areas)
		tPred = make([]int, 0, 7*slots*areas)
		for d := 0; d < 7; d++ {
			wPred = append(wPred, ftoa.ToCounts(ftoa.PredictDay(wPredictor, wSeries, src[d]))...)
			tPred = append(tPred, ftoa.ToCounts(ftoa.PredictDay(tPredictor, tSeries, src[d]))...)
		}
		slotting = ftoa.NewAnchoredSlotting(7*cfg.horizon, 7*slots, cfg.anchorOffset)
	default:
		return nil, fmt.Errorf("unknown -guide-anchor %q (want wallclock or uptime)", cfg.guideAnchor)
	}
	bounds := ftoa.NewRect(cfg.bounds[0], cfg.bounds[1], cfg.bounds[2], cfg.bounds[3])
	return ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:            ftoa.NewGrid(bounds, cols, rows),
		Slots:           slotting,
		Velocity:        cfg.velocity,
		WorkerPatience:  cfg.guidePatience,
		TaskExpiry:      cfg.guideExpiry,
		MaxEdgesPerCell: 128,
		RepSlack:        slotting.Width() / 2,
	}, wPred, tPred)
}

// weekdaySources maps each weekday 0-6 (Sunday-anchored, like
// time.Weekday) to the history day whose pattern should serve it: the
// latest history day with that weekday, falling back to the overall last
// day for weekdays a short history never saw.
func weekdaySources(dow []int) [7]int {
	var src [7]int
	for d := range src {
		src[d] = len(dow) - 1
	}
	for i, w := range dow {
		src[w] = i // ascending i: the latest occurrence wins
	}
	return src
}

// forecastFromCounts builds the rebalance supervisor's demand forecaster
// from the -guide count history: train HP-MSI exactly as the guide
// pipeline does, convert the predicted per-(slot, area) worker+task
// counts into arrival rates, and answer a per-region demand query by
// overlapping the region rect with the forecast grid at the slot the
// queried instant falls into (same -guide-anchor rules as the guide).
// The supervisor takes max(measured EWMA, forecast), so a predicted rush
// can trigger a split before the measured rate catches up.
func forecastFromCounts(r io.Reader, cfg config) (func(ftoa.Rect, float64) float64, error) {
	days, slots, areas, wCounts, tCounts, weather, err := ftoa.LoadCountsCSV(r)
	if err != nil {
		return nil, err
	}
	if days < 3 {
		return nil, fmt.Errorf("count history has %d day(s); need >= 3 (HP-MSI trains on all but the last, forecasts the last)", days)
	}
	cols, rows := cfg.guideGrid[0], cfg.guideGrid[1]
	if cols == 0 && rows == 0 {
		side := int(math.Round(math.Sqrt(float64(areas))))
		if side*side != areas {
			return nil, fmt.Errorf("%d areas is not square; pass -guide-grid CxR", areas)
		}
		cols, rows = side, side
	}
	if cols*rows != areas {
		return nil, fmt.Errorf("-guide-grid %dx%d does not match the history's %d areas", cols, rows, areas)
	}
	dow := make([]int, days)
	for i := range dow {
		dow[i] = (cfg.guideDow0 + i) % 7
	}
	fit := func(counts []int) (*ftoa.Series, ftoa.Predictor, error) {
		s, err := ftoa.NewSeries(days, slots, areas, counts, weather, dow)
		if err != nil {
			return nil, nil, err
		}
		p := ftoa.NewHPMSI()
		if err := p.Fit(s, days-1); err != nil {
			return nil, nil, err
		}
		return s, p, nil
	}
	wSeries, wPredictor, err := fit(wCounts)
	if err != nil {
		return nil, err
	}
	tSeries, tPredictor, err := fit(tCounts)
	if err != nil {
		return nil, err
	}

	var wPred, tPred []int
	var period float64
	var nslots int
	var offset float64
	wallclock := false
	switch cfg.guideAnchor {
	case "", "uptime":
		wPred = ftoa.ToCounts(ftoa.PredictDay(wPredictor, wSeries, days-1))
		tPred = ftoa.ToCounts(ftoa.PredictDay(tPredictor, tSeries, days-1))
		period, nslots = cfg.horizon, slots
	case "wallclock":
		src := weekdaySources(dow)
		wPred = make([]int, 0, 7*slots*areas)
		tPred = make([]int, 0, 7*slots*areas)
		for d := 0; d < 7; d++ {
			wPred = append(wPred, ftoa.ToCounts(ftoa.PredictDay(wPredictor, wSeries, src[d]))...)
			tPred = append(tPred, ftoa.ToCounts(ftoa.PredictDay(tPredictor, tSeries, src[d]))...)
		}
		period, nslots = 7*cfg.horizon, 7*slots
		offset, wallclock = cfg.anchorOffset, true
	default:
		return nil, fmt.Errorf("unknown -guide-anchor %q (want wallclock or uptime)", cfg.guideAnchor)
	}
	width := period / float64(nslots)
	// Per-(slot, cell) arrival rate: counts are per slot, so rate is
	// count over slot width, workers and tasks combined — the same
	// arrivals-per-second unit as the router's EWMA.
	rate := make([]float64, nslots*areas)
	for i := range rate {
		rate[i] = float64(wPred[i]+tPred[i]) / width
	}
	bounds := ftoa.NewRect(cfg.bounds[0], cfg.bounds[1], cfg.bounds[2], cfg.bounds[3])
	grid := ftoa.NewGrid(bounds, cols, rows)
	return func(region ftoa.Rect, now float64) float64 {
		t := now + offset
		if wallclock {
			t = math.Mod(t, period)
			if t < 0 {
				t += period
			}
		}
		idx := int(t / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= nslots {
			idx = nslots - 1 // uptime anchoring clamps to the last slot
		}
		var sum float64
		for c := 0; c < areas; c++ {
			cr := grid.CellRect(c)
			ov := rectOverlap(region, cr)
			if ov <= 0 {
				continue
			}
			if a := cr.Width() * cr.Height(); a > 0 {
				sum += rate[idx*areas+c] * ov / a
			}
		}
		return sum
	}, nil
}

// rectOverlap is the intersection area of two rects.
func rectOverlap(a, b ftoa.Rect) float64 {
	w := min(a.MaxX, b.MaxX) - max(a.MinX, b.MinX)
	h := min(a.MaxY, b.MaxY) - max(a.MinY, b.MinY)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// wallclockOffset returns the seconds-into-week of t, scaled so one day
// spans dayLen seconds of the guide timeline (-horizon is the served day
// length; with the default 86400 the scale is 1:1). The day fraction is
// read off the wall-clock components — not elapsed-since-midnight, which
// over- or undershoots by the shifted hour on DST transition days.
func wallclockOffset(t time.Time, dayLen float64) float64 {
	secs := float64(t.Hour()*3600+t.Minute()*60+t.Second()) + float64(t.Nanosecond())/1e9
	return (float64(t.Weekday()) + secs/86400) * dayLen
}

func newServer(cfg config) (*server, error) {
	var mode ftoa.Mode
	switch cfg.mode {
	case "strict":
		mode = ftoa.Strict
	case "assume-guide":
		mode = ftoa.AssumeGuide
	default:
		return nil, fmt.Errorf("unknown mode %q (want strict or assume-guide)", cfg.mode)
	}
	if cfg.tick <= 0 {
		return nil, fmt.Errorf("tick must be positive, got %v", cfg.tick)
	}
	if cfg.retention <= 0 {
		return nil, fmt.Errorf("retention must be positive, got %d", cfg.retention)
	}
	if cfg.horizon <= 0 {
		return nil, fmt.Errorf("horizon must be positive, got %v", cfg.horizon)
	}
	if cfg.retire < 0 {
		return nil, fmt.Errorf("retire interval must be non-negative, got %v", cfg.retire)
	}
	if cfg.halo < 0 {
		return nil, fmt.Errorf("halo window must be non-negative, got %v", cfg.halo)
	}
	switch cfg.guideAnchor {
	case "", "uptime":
	case "wallclock":
		// The anchor is derived here, next to the validation, so every
		// construction path — not just flag parsing — maps uptime onto
		// the boot instant's day-of-week and time-of-day.
		cfg.anchorOffset = wallclockOffset(time.Now(), cfg.horizon)
	default:
		return nil, fmt.Errorf("unknown guide anchor %q (want wallclock or uptime)", cfg.guideAnchor)
	}
	if cfg.admitQueue < 0 {
		return nil, fmt.Errorf("admit queue bound must be non-negative, got %d", cfg.admitQueue)
	}
	var walPolicy ftoa.WALSyncPolicy
	switch cfg.walSync {
	case "", "interval":
		walPolicy = ftoa.WALSyncInterval
	case "always":
		walPolicy = ftoa.WALSyncAlways
	case "none":
		walPolicy = ftoa.WALSyncNone
	default:
		return nil, fmt.Errorf("unknown WAL sync policy %q (want always, interval or none)", cfg.walSync)
	}
	mk, err := buildAlgorithm(cfg)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	s := &server{
		clock:      func() float64 { return time.Since(started).Seconds() },
		minAdvance: cfg.tick.Seconds() / 2,
		admitLimit: cfg.admitQueue,
		inflight:   make([]atomic.Int32, cfg.shards[0]*cfg.shards[1]),
		shed:       make([]atomic.Uint64, cfg.shards[0]*cfg.shards[1]),
	}
	s.lastAdvance.Store(math.Float64bits(math.Inf(-1)))
	shardCfg := ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     mode,
			Velocity: cfg.velocity,
			Bounds:   ftoa.NewRect(cfg.bounds[0], cfg.bounds[1], cfg.bounds[2], cfg.bounds[3]),
		},
		Cols: cfg.shards[0],
		Rows: cfg.shards[1],
		// -halo is a reach window in seconds; the router wants a distance.
		Halo:           ftoa.HaloForWindow(cfg.velocity, cfg.halo),
		NewAlgorithm:   mk,
		Retention:      cfg.retention,
		RetireInterval: cfg.retire.Seconds(),
	}
	if cfg.walDir == "" {
		s.router, err = ftoa.NewShardRouter(shardCfg)
		if err != nil {
			return nil, err
		}
	} else {
		shardCfg.WAL = &ftoa.WALOptions{Dir: cfg.walDir, Policy: walPolicy, Interval: cfg.walSyncInterval}
		// Replay appends every recovered event to the router's event log,
		// so /events and /matches come back along with the router.
		s.router, s.recovery, err = ftoa.RecoverShardRouter(shardCfg)
		if err != nil {
			return nil, err
		}
		s.walled = true
		if off := s.recovery.MaxClock; off > 0 && !math.IsInf(off, 0) {
			// Session time must stay monotone across the restart: resume the
			// clock where the dead process left it, so recovered deadlines
			// (admission time + patience/expiry) keep their meaning instead
			// of all expiring relative to a rewound zero.
			s.clock = func() float64 { return off + time.Since(started).Seconds() }
		}
	}
	s.admitter = ftoa.NewShardAdmitter(s.router, ftoa.ShardAdmitterConfig{Ring: cfg.ring, Batch: cfg.batch})
	if cfg.rebalance {
		rcfg := ftoa.RebalanceConfig{
			SplitRate: cfg.rebalSplit,
			MergeRate: cfg.rebalMerge,
			MaxDepth:  cfg.rebalDepth,
			Cooldown:  cfg.rebalCooldown.Seconds(),
			Tau:       cfg.rebalTau.Seconds(),
		}
		if cfg.rebalForecast {
			if cfg.guidePath == "" {
				return nil, fmt.Errorf("-rebalance-forecast needs -guide counts.csv to train the demand predictor")
			}
			f, err := os.Open(cfg.guidePath)
			if err != nil {
				return nil, err
			}
			rcfg.Forecast, err = forecastFromCounts(f, cfg)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("building demand forecast from %s: %w", cfg.guidePath, err)
			}
		}
		if s.rebal, err = ftoa.NewRebalanceSupervisor(s.router, rcfg); err != nil {
			return nil, err
		}
	} else if cfg.rebalForecast {
		return nil, fmt.Errorf("-rebalance-forecast needs -rebalance")
	}
	return s, nil
}

// recoverUsPerEvent is the recovery's wall time per recovered event, in
// microseconds (0 when nothing was recovered).
func recoverUsPerEvent(ri *ftoa.ShardRecoveryInfo) float64 {
	if ri.Events == 0 {
		return 0
	}
	return float64(ri.Duration.Microseconds()) / float64(ri.Events)
}

// close stops the admission drainers, draining their rings; producers
// (the HTTP and wire listeners) must be stopped first, and the router's
// WAL closed after, so every acknowledged admission becomes durable.
func (s *server) close() { s.admitter.Close() }

// shutdown is the graceful stop. Producers go first — the tick loop, the
// wire connections, the HTTP server (in-flight requests get until ctx
// ends) — so nothing enqueues to the admission rings any more; then the
// rings drain into their shards; then, with a WAL, the live population is
// checkpointed into a sealed generation of its own, so the next boot
// replays what is alive instead of everything this process ever admitted;
// then the WAL closes. Only the close can fail the shutdown: a checkpoint
// that does not seal leaves the generations before it in place, the next
// boot replays those, and the failure is logged and kept for /stats.
func (s *server) shutdown(ctx context.Context) error {
	if s.stopTick != nil {
		close(s.stopTick)
		<-s.tickDone
	}
	if s.wire != nil {
		s.wire.close()
	}
	if s.http != nil {
		if err := s.http.Shutdown(ctx); err != nil {
			log.Printf("ftoa-serve: shutdown: %v", err)
		}
	}
	s.close()
	if s.walled {
		s.checkpoint()
	}
	return s.router.WALClose()
}

// checkpoint seals the live population as a WAL generation of its own
// (Router.Checkpoint) and records the outcome.
func (s *server) checkpoint() {
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

// startTick runs tickLoop until shutdown stops it.
func (s *server) startTick(interval time.Duration) {
	s.stopTick, s.tickDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.tickDone)
		s.tickLoop(interval, s.stopTick)
	}()
}

// now is the session clock value for the current instant.
func (s *server) now() float64 { return s.clock() }

// advance drives every shard's timers and expiries from wall time; it is
// the live analogue of the replay loop's event clock and what makes batch
// algorithms (GR) flush — and deadlines expire — between arrivals. It is
// throttled to minAdvance of clock movement (the tick loop already bounds
// staleness to one tick); the CAS dedups walkers racing for the same
// clock window, though two walks may still overlap across windows —
// safe, since Router.Advance is concurrent-safe and monotone per shard.
func (s *server) advance() {
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

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/workers", s.handleWorkers)
	mux.HandleFunc("/tasks", s.handleTasks)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/matches", s.handleMatches)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// lane maps a (possibly rebalance-grown) shard id onto the fixed
// inflight/shed arrays; on a static topology lane == shard.
func (s *server) lane(shard int) int { return shard % len(s.inflight) }

// admitSlot reserves an admission slot against lane's bounded queue;
// the caller must release it with s.inflight[lane].Add(-1) once the
// admission resolves. A false return means the lane is over its
// backlog bound and the arrival was counted as shed.
func (s *server) admitSlot(lane int) bool {
	n := s.inflight[lane].Add(1)
	if s.admitLimit > 0 && int(n) > s.admitLimit {
		s.inflight[lane].Add(-1)
		s.shed[lane].Add(1)
		return false
	}
	return true
}

// shedReply is the overload response: 503 with a jittered Retry-After
// hint (1 or 2 seconds — the header's resolution) so a crowd of shed
// clients does not re-arrive in the same tick.
func (s *server) shedReply(w http.ResponseWriter, lane int) {
	w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(2)))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("shard %d admission queue full, retry later", lane))
}

func (s *server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req workerReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Patience <= 0 {
		writeError(w, http.StatusBadRequest, "patience must be positive")
		return
	}
	pt := ftoa.Pt(req.X, req.Y)
	lane := s.lane(s.router.ShardOf(pt))
	if !s.admitSlot(lane) {
		s.shedReply(w, lane)
		return
	}
	defer s.inflight[lane].Add(-1)
	// The admission goes through the shared per-shard ring: the drainer
	// reports the admission time the shard session actually stamped (the
	// clock read here, clamped monotone under the shard lock), so the
	// response always agrees with the session's deadlines even when
	// concurrent POSTs race the clock forward. A refused enqueue — full
	// ring, or the router quiescing for a rebalance — is the same 503 +
	// Retry-After surface as a full backlog.
	var res ftoa.ShardAdmitResult
	var wg sync.WaitGroup
	if !s.admitter.AddWorker(ftoa.Worker{Loc: pt, Arrive: s.now(), Patience: req.Patience}, &res, &wg) {
		s.shed[lane].Add(1)
		s.shedReply(w, lane)
		return
	}
	wg.Wait()
	if res.Err != nil {
		writeError(w, http.StatusConflict, res.Err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"worker": res.H.Local, "shard": res.H.Shard, "time": res.Admitted})
}

func (s *server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req taskReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Expiry <= 0 {
		writeError(w, http.StatusBadRequest, "expiry must be positive")
		return
	}
	pt := ftoa.Pt(req.X, req.Y)
	lane := s.lane(s.router.ShardOf(pt))
	if !s.admitSlot(lane) {
		s.shedReply(w, lane)
		return
	}
	defer s.inflight[lane].Add(-1)
	var res ftoa.ShardAdmitResult
	var wg sync.WaitGroup
	if !s.admitter.AddTask(ftoa.Task{Loc: pt, Release: s.now(), Expiry: req.Expiry}, &res, &wg) {
		s.shed[lane].Add(1)
		s.shedReply(w, lane)
		return
	}
	wg.Wait()
	if res.Err != nil {
		writeError(w, http.StatusConflict, res.Err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"task": res.H.Local, "shard": res.H.Shard, "time": res.Admitted})
}

// parseSince reads a non-negative integer cursor. present reports whether
// the parameter was supplied (an absent cursor means "from the oldest
// retained", never 410); ok is false after an error response has been
// written.
func parseSince(w http.ResponseWriter, r *http.Request) (since uint64, present, ok bool) {
	v := r.URL.Query().Get("since")
	if v == "" {
		return 0, false, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "since must be a non-negative integer")
		return 0, true, false
	}
	return n, true, true
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	since, present, ok := parseSince(w, r)
	if !ok {
		return
	}
	// Page size: bounded so a cold cursor over a full window cannot
	// serialize shards x retention events into one response; the returned
	// "next" cursor pages through the rest gap-free. Clients may lower it
	// with ?limit=N.
	limit := maxEventsPage
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		if n < limit {
			limit = n
		}
	}
	// wait=DURATION long-polls: when the cursor is at the head, hold the
	// request on an event-log subscription (the same primitive as the wire
	// pusher — no server-side poll loop) until an event arrives or the
	// window elapses, then answer normally. Only meaningful with an
	// explicit since cursor; capped so a stuck client cannot pin a
	// handler for long.
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "wait must be a non-negative duration (e.g. 5s)")
			return
		}
		if d > maxEventsWait {
			d = maxEventsWait
		}
		wait = d
	}
	s.advance()
	var evs []ftoa.ShardEvent
	var next uint64
	var err error
	if present {
		if wait > 0 && since >= s.router.Cursor() {
			// At the head with nothing to deliver: park on the log until
			// an emission (or the client giving up) wakes us, then
			// serve the page below exactly as an immediate poll would.
			sub := s.router.Subscribe(since)
			sub.Wait(wait, r.Context().Done())
			sub.Close()
		}
		evs, next, err = s.router.EventsLimit(since, limit, nil)
	} else {
		// The bare form serves "whatever is retained" atomically — it
		// can never race retention into a 410.
		evs, next = s.router.EventsFromOldest(limit, nil)
	}
	if err != nil {
		// The cursor points below the retention window: the client
		// restarts from the oldest still-readable cursor, losing only
		// the genuinely evicted events.
		writeJSON(w, http.StatusGone, map[string]any{
			"error": err.Error(),
			"next":  s.router.OldestCursor(),
		})
		return
	}
	out := make([]eventJSON, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON{
			Seq:         ev.Seq,
			Shard:       ev.Shard,
			Kind:        ev.Kind.String(),
			Worker:      ev.Worker,
			Task:        ev.Task,
			WorkerShard: ev.WorkerShard,
			TaskShard:   ev.TaskShard,
			Time:        ev.Time,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": out, "next": next})
}

func (s *server) handleMatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	since, present, ok := parseSince(w, r)
	if !ok {
		return
	}
	// Pages are bounded like /events: an uncapped read would copy the
	// whole retained window per poll. Clients follow "next"; ?limit=N
	// lowers the cap.
	limit := maxEventsPage
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		if n < limit {
			limit = n
		}
	}
	s.advance()
	var (
		entries []ftoa.ShardEvent
		next    uint64
		err     error
	)
	if present {
		entries, next, err = s.router.Matches(since, limit, nil)
	} else {
		// The bare snapshot form returns the retained window, never 410.
		entries, next = s.router.MatchesFromOldest(limit, nil)
	}
	if err != nil {
		// Like /events, hand back the oldest still-readable cursor so
		// the client loses only the genuinely evicted matches.
		oldest := s.router.OldestMatch()
		writeJSON(w, http.StatusGone, map[string]any{
			"error": fmt.Sprintf("matches before %d evicted (retention window)", oldest),
			"count": s.router.MatchCount(),
			"next":  oldest,
		})
		return
	}
	out := make([]matchJSON, len(entries)) // [] (not null) when empty
	for i, e := range entries {
		out[i] = matchJSON{
			Worker:      e.Worker,
			Task:        e.Task,
			Shard:       e.Shard,
			WorkerShard: e.WorkerShard,
			TaskShard:   e.TaskShard,
			Time:        e.Time,
		}
	}
	// "count" is the lifetime total; "next" is the gap-free poll cursor
	// (use it rather than count: a match committing concurrently with
	// this read may land between the two).
	writeJSON(w, http.StatusOK, map[string]any{"matches": out, "count": s.router.MatchCount(), "next": next})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.advance()
	type shardJSON struct {
		Shard          int     `json:"shard"`
		Workers        int     `json:"workers"`
		Tasks          int     `json:"tasks"`
		LiveWorkers    int     `json:"live_workers"`
		LiveTasks      int     `json:"live_tasks"`
		Matches        int     `json:"matches"`
		ExpiredWorkers int     `json:"expired_workers"`
		ExpiredTasks   int     `json:"expired_tasks"`
		Attempted      int     `json:"attempted"`
		Rejected       int     `json:"rejected"`
		Now            float64 `json:"now"`
		// Halo (cross-shard) metrics; all zero with -halo 0. Ghosts are
		// mirrored copies admitted into this shard; withdrawn counts the
		// copies retracted after their original matched or expired
		// elsewhere; claims_lost the commits this shard lost to the
		// cross-shard arbitration; border_matches the commits won here
		// involving a mirrored endpoint.
		GhostWorkers     int `json:"ghost_workers"`
		GhostTasks       int `json:"ghost_tasks"`
		WithdrawnWorkers int `json:"withdrawn_workers"`
		WithdrawnTasks   int `json:"withdrawn_tasks"`
		ClaimsLost       int `json:"claims_lost"`
		BorderMatches    int `json:"border_matches"`
		// Shed counts the arrivals this shard's LANE rejected with 503
		// because its bounded admission queue (-admit-queue) was full;
		// after a rebalance grows the region count past the lane count,
		// the lane's count is reported under every shard sharing it.
		Shed uint64 `json:"shed"`
		// ArrivalRate is the shard's admission-rate EWMA in arrivals per
		// second — the demand signal the rebalance supervisor splits and
		// merges on. Zero until the first two samples.
		ArrivalRate float64 `json:"arrival_rate"`
	}
	// One StatsAll snapshot: per-shard reads would race a concurrent
	// topology swap (the shard count can change between iterations).
	stats := s.router.StatsAll(nil)
	shards := make([]shardJSON, len(stats))
	// The top-level counts are the router's lifetime totals, which outlive
	// the sessions a rebalance, a checkpoint or a recovered checkpoint
	// replaced; the per-shard rows count the current sessions only.
	tot := s.router.Totals()
	var liveW, liveT int
	var shedTotal uint64
	now := 0.0
	for i := range shards {
		st := stats[i]
		// A session that has never been advanced reports -Inf (the
		// unset-clock sentinel), which JSON cannot encode; server time
		// starts at 0, so clamp there.
		if math.IsInf(st.Now, -1) {
			st.Now = 0
		}
		shards[i] = shardJSON{
			Shard:            st.Shard,
			Workers:          st.Workers,
			Tasks:            st.Tasks,
			LiveWorkers:      st.LiveWorkers,
			LiveTasks:        st.LiveTasks,
			Matches:          st.Matches,
			ExpiredWorkers:   st.ExpiredWorkers,
			ExpiredTasks:     st.ExpiredTasks,
			Attempted:        st.Attempted,
			Rejected:         st.Rejected,
			Now:              st.Now,
			GhostWorkers:     st.GhostWorkers,
			GhostTasks:       st.GhostTasks,
			WithdrawnWorkers: st.WithdrawnWorkers,
			WithdrawnTasks:   st.WithdrawnTasks,
			ClaimsLost:       st.ClaimsLost,
			BorderMatches:    st.BorderMatches,
			Shed:             s.shed[s.lane(i)].Load(),
			ArrivalRate:      st.ArrivalRate,
		}
		liveW += st.LiveWorkers
		liveT += st.LiveTasks
		if st.Now > now {
			now = st.Now
		}
	}
	// Shed totals come from the lane array directly — summing the
	// per-shard field would double-count lanes shared by several regions.
	for i := range s.shed {
		shedTotal += s.shed[i].Load()
	}
	// WAL status: sticky append errors surface here (and only here) so an
	// operator polling /stats notices a durability failure while the
	// in-memory router keeps serving.
	walStatus := map[string]any{"enabled": s.walled}
	if s.walled {
		walStatus["generation"] = s.router.WALGeneration()
		walStatus["recovered"] = s.recovery.Recovered
		walStatus["recovered_events"] = s.recovery.Events
		walStatus["recovered_matches"] = s.recovery.Matches
		walStatus["torn_bytes"] = s.recovery.TornBytes
		// What the restart cost: wall time of the whole recovery, the same
		// per recovered event, log bytes read over its passes, and how many
		// on-disk generations it did not need.
		walStatus["recover_ms"] = float64(s.recovery.Duration.Microseconds()) / 1e3
		walStatus["recover_us_per_event"] = recoverUsPerEvent(s.recovery)
		walStatus["wal_bytes_read"] = s.recovery.BytesRead
		walStatus["skipped_generations"] = s.recovery.SkippedGenerations
		// Whether that restart began at a sealed checkpoint (a clean
		// shutdown's, or a rebalance's) instead of the router's first
		// generation, and the checkpoint this process has made itself.
		walStatus["from_checkpoint"] = s.recovery.FromCheckpoint
		if cp := s.checkpointed.Load(); cp != nil {
			if cp.info != nil {
				walStatus["checkpoint_generation"] = cp.info.WALGeneration
				walStatus["checkpoint_objects"] = cp.info.MigratedWorkers + cp.info.MigratedTasks
				walStatus["checkpoint_ms"] = float64(cp.info.Duration.Microseconds()) / 1e3
				walStatus["segments_removed"] = cp.info.SegmentsRemoved
			}
			if cp.err != "" {
				walStatus["checkpoint_error"] = cp.err
			}
		}
		if err := s.router.WALErr(); err != nil {
			walStatus["error"] = err.Error()
		}
	}
	wireStatus := map[string]any{"enabled": false}
	if s.wire != nil {
		wireStatus = s.wire.statsJSON()
	}
	// Event delivery status: the event log every reader (wire pushers,
	// /events, /matches) is served from. "oldest" and "head" bound the
	// readable window [oldest, head) — one consistent pair — and
	// "retained" is its size; "evicted_subs" counts the wire subscribers
	// dropped for not draining their stream.
	est := s.router.EventLogStats()
	var evictedSubs uint64
	if s.wire != nil {
		evictedSubs = s.wire.evicted.Load()
	}
	eventsStatus := map[string]any{
		"subscribers":  est.Subscribers,
		"oldest":       est.Oldest,
		"head":         est.Frontier,
		"retained":     est.Frontier - est.Oldest,
		"capacity":     est.Capacity,
		"published":    est.Published,
		"wakeups":      est.Wakeups,
		"evicted_subs": evictedSubs,
	}
	// Topology status: the current (possibly rebalanced) region layout.
	// The string is "CxR" for the uniform base grid, "CxR+n" after n
	// quadtree splits; see docs/rebalance.md.
	topoStatus := map[string]any{
		"adaptive":   s.rebal != nil,
		"version":    s.router.TopologyVersion(),
		"topology":   s.router.Topology().String(),
		"regions":    len(stats),
		"rebalances": s.router.Rebalances(),
		"migrating":  s.router.Migrating(),
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":           tot.Workers,
		"tasks":             tot.Tasks,
		"live_workers":      liveW,
		"live_tasks":        liveT,
		"matches":           tot.Matches,
		"expired_workers":   tot.ExpiredWorkers,
		"expired_tasks":     tot.ExpiredTasks,
		"attempted":         tot.Attempted,
		"rejected":          tot.Rejected,
		"ghost_workers":     tot.GhostWorkers,
		"ghost_tasks":       tot.GhostTasks,
		"withdrawn_workers": tot.WithdrawnWorkers,
		"withdrawn_tasks":   tot.WithdrawnTasks,
		"claims_lost":       tot.ClaimsLost,
		"border_matches":    tot.BorderMatches,
		"shed":              shedTotal,
		"wal":               walStatus,
		"wire":              wireStatus,
		"events":            eventsStatus,
		"topology":          topoStatus,
		"now":               now,
		"shards":            shards,
	})
}

// tickLoop advances the shard clocks periodically so timer-driven
// algorithms make progress — and deadlines expire — during arrival
// lulls; stop ends it so shutdown doesn't race a final advance against
// the checkpoint and the WAL close. It is also the rebalance supervisor's single driving
// goroutine: each tick samples the arrival-rate EWMAs and applies at
// most one topology change.
func (s *server) tickLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.advance()
			if s.rebal != nil {
				switch info, err := s.rebal.Tick(s.now()); {
				case err != nil:
					log.Printf("ftoa-serve: rebalance: %v", err)
				case info != nil:
					log.Printf("ftoa-serve: rebalance v%d: %s -> %s (%d regions, migrated %d workers + %d tasks, WAL gen %d)",
						info.Version, info.From, info.To, info.Regions,
						info.MigratedWorkers, info.MigratedTasks, info.WALGeneration)
				}
			}
		case <-stop:
			return
		}
	}
}

// haloBootReport renders the boot-time halo geometry summary: one line
// per shard with its region size and effective halo fraction — the
// ghost admissions mirrored in from the halo band around the region,
// relative to the region's own traffic share — preceded by a warning
// for every shard whose region the halo reach window rivals. At
// 2*halo >= the region's smaller dimension the halo bands cover the
// entire region: every admission there is mirrored somewhere, and
// sharding degenerates toward replicated broadcast.
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
		if 2*halo >= min(r.Width(), r.Height()) {
			lines = append(lines, fmt.Sprintf(
				"ftoa-serve: WARNING: halo reach %g rivals shard %d region %gx%g (2*halo >= min dimension): the halo bands cover the whole region, so nearly every admission is mirrored; use fewer shards or a smaller -halo",
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
			"ftoa-serve: shard %d region %gx%g halo reach %g: effective halo fraction %.1f%% (ghost admissions over own share)",
			i, r.Width(), r.Height(), halo, 100*ghost))
	}
	return lines
}

// bootGate is what the listener serves while the process is still
// replaying its WAL: the port is bound (and /healthz answering) the
// moment the process starts, but every request gets 503 until ready
// swaps in the real handler. Readiness is therefore observable — a
// deployment can distinguish "recovering" from "dead" — without
// delaying the bind past a long replay.
type bootGate struct {
	h atomic.Value // holds handlerBox (atomic.Value wants one concrete type)
}

type handlerBox struct{ h http.Handler }

func newBootGate() *bootGate {
	g := &bootGate{}
	g.h.Store(handlerBox{http.HandlerFunc(recovering)})
	return g
}

func (g *bootGate) ready(h http.Handler) { g.h.Store(handlerBox{h}) }

func (g *bootGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.h.Load().(handlerBox).h.ServeHTTP(w, r)
}

func recovering(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	if r.URL.Path == "/healthz" {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "recovering: WAL replay in progress")
}

// parsePair parses "NxM" into two positive integers.
func parsePair(s, flagName string) ([2]int, error) {
	parts := strings.SplitN(s, "x", 2)
	if len(parts) != 2 {
		return [2]int{}, fmt.Errorf("bad %s %q: want NxM", flagName, s)
	}
	var out [2]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return [2]int{}, fmt.Errorf("bad %s component %q: want a positive integer", flagName, p)
		}
		out[i] = n
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	alg := flag.String("alg", "greedy", "matching algorithm: greedy, gr, polar, polarop or hybrid")
	window := flag.Float64("window", 1.0, "gr batch window in seconds")
	mode := flag.String("mode", "strict", "validation mode: strict or assume-guide")
	velocity := flag.Float64("velocity", 1.0, "worker velocity (units per second)")
	boundsStr := flag.String("bounds", "0,0,100,100", "service area as x0,y0,x1,y1")
	tick := flag.Duration("tick", 250*time.Millisecond, "timer advance interval")
	shards := flag.String("shards", "1x1", "shard grid as NxM (regions served independently)")
	halo := flag.Float64("halo", 0, "cross-shard matching reach window in seconds: border arrivals within velocity*halo of a neighbor region are mirrored there so cross-border pairs match (typically the task expiry window; 0 keeps regions disjoint)")
	retention := flag.Int("retention", 1<<16, "events retained per base-grid shard: /events and /matches read the most recent retention x shards events")
	retire := flag.Duration("retire", time.Minute, "per-shard arena retirement interval; matched and expired objects are compacted away, bounding memory by the live population (0 disables)")
	guide := flag.String("guide", "", "per-cell count history CSV (ftoa-gen -counts format) for guided algorithms")
	guideGrid := flag.String("guide-grid", "", "guide grid as CxR (default: infer a square from the history)")
	guideDow0 := flag.Int("guide-dow0", 0, "weekday (0-6) of the count history's first day, anchoring HP-MSI's weekday feature")
	horizon := flag.Float64("horizon", 86400, "guide horizon in seconds (the served day length)")
	guidePatience := flag.Float64("guide-patience", 300, "worker patience Dw assumed by the guide (seconds)")
	guideExpiry := flag.Float64("guide-expiry", 60, "task expiry Dr assumed by the guide (seconds)")
	guideAnchor := flag.String("guide-anchor", "wallclock", "guide slot anchoring: wallclock (7-day week guide keyed to wall-clock day-of-week and time-of-day) or uptime (legacy: the first -horizon seconds of uptime are the served day)")
	walDir := flag.String("wal", "", "write-ahead log directory; arrivals and match outcomes are made durable per shard and replayed at boot, so a killed server restarts with its state intact (empty disables durability)")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always (fsync per operation), interval (group commit on -wal-sync-interval) or none (OS page cache only)")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "group-commit window for -wal-sync interval (0 = 50ms default)")
	admitQueue := flag.Int("admit-queue", 0, "per-shard admission backlog bound; arrivals beyond it are shed with 503 + Retry-After (0 disables shedding)")
	listenWire := flag.String("listen-wire", "", "binary wire-protocol listen address for batched admission over TCP (empty disables); see docs/wire.md")
	wireMaxConns := flag.Int("wire-max-conns", 256, "max concurrent wire connections; excess dials are closed at the door (the resilient client retries with backoff)")
	wireIdle := flag.Duration("wire-idle", 5*time.Minute, "wire per-connection idle (read) deadline; a silent peer is dropped after this long")
	wireWriteTimeout := flag.Duration("wire-write-timeout", 10*time.Second, "wire per-frame write deadline; a subscriber that cannot drain its event stream this fast is evicted")
	wireDedupWindow := flag.Int("wire-dedup-window", wire.DefaultDedupWindow, "idempotency seqs remembered per wire client; a batch re-sent within the window replays its original receipts")
	wireDedupClients := flag.Int("wire-dedup-clients", wire.DefaultDedupCap, "wire client idempotency windows retained (LRU-evicted beyond this)")
	admitRing := flag.Int("admit-ring", 1024, "per-shard admission ring capacity shared by HTTP and wire arrivals; a full ring answers 503/BUSY (backpressure bound)")
	admitBatch := flag.Int("admit-batch", 256, "max ring admissions drained per shard lock acquisition")
	rebalance := flag.Bool("rebalance", false, "adapt the shard topology online: split regions whose arrival rate exceeds -rebalance-split into a finer sub-grid and merge cold sibling quads back, migrating live state (see docs/rebalance.md)")
	rebalSplit := flag.Float64("rebalance-split", 200, "per-region arrival rate (admissions/sec) above which the region is split")
	rebalMerge := flag.Float64("rebalance-merge", 0, "combined arrival rate below which four sibling sub-regions merge back (0 disables merging; must be <= split/4)")
	rebalDepth := flag.Int("rebalance-depth", 2, "max quarterings per base grid cell (clamped to 6)")
	rebalCooldown := flag.Duration("rebalance-cooldown", 10*time.Second, "minimum interval between topology changes")
	rebalTau := flag.Duration("rebalance-tau", 5*time.Second, "arrival-rate EWMA time constant (larger = smoother, slower to react)")
	rebalForecast := flag.Bool("rebalance-forecast", false, "also forecast per-region demand with HP-MSI trained on the -guide count history, splitting ahead of predicted rushes")
	flag.Parse()

	cfg := config{
		algorithm:       *alg,
		window:          *window,
		mode:            *mode,
		velocity:        *velocity,
		tick:            *tick,
		retention:       *retention,
		retire:          *retire,
		halo:            *halo,
		walDir:          *walDir,
		walSync:         *walSync,
		walSyncInterval: *walSyncInterval,
		admitQueue:      *admitQueue,
		ring:            *admitRing,
		batch:           *admitBatch,
		rebalance:       *rebalance,
		rebalSplit:      *rebalSplit,
		rebalMerge:      *rebalMerge,
		rebalDepth:      *rebalDepth,
		rebalCooldown:   *rebalCooldown,
		rebalTau:        *rebalTau,
		rebalForecast:   *rebalForecast,
		guidePath:       *guide,
		guideDow0:       ((*guideDow0)%7 + 7) % 7,
		horizon:         *horizon,
		guidePatience:   *guidePatience,
		guideExpiry:     *guideExpiry,
		guideAnchor:     *guideAnchor,
	}
	parts := strings.Split(*boundsStr, ",")
	if len(parts) != 4 {
		log.Fatalf("bad -bounds %q: want x0,y0,x1,y1", *boundsStr)
	}
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &cfg.bounds[i]); err != nil {
			log.Fatalf("bad -bounds component %q: %v", p, err)
		}
	}
	var err error
	if cfg.shards, err = parsePair(*shards, "-shards"); err != nil {
		log.Fatal(err)
	}
	if *guideGrid != "" {
		if cfg.guideGrid, err = parsePair(*guideGrid, "-guide-grid"); err != nil {
			log.Fatal(err)
		}
	}

	// Bind before building the server: WAL replay can take a while on a
	// long history, and the gate makes that visible as 503 "recovering"
	// instead of a connection refused.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	gate := newBootGate()
	// Header and idle deadlines shed peers that dial and stall (the wire
	// listener applies the analogous bounds itself); request handlers stay
	// un-deadlined — admission latency is bounded by the ring, not a timer.
	hs := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if ri := srv.recovery; ri != nil && ri.Recovered {
		log.Printf("ftoa-serve: recovered %d events (%d matches) from %d WAL segment(s), %d torn byte(s) truncated; resuming at t=%.3f generation %d; recover_ms=%.1f recover_us_per_event=%.2f wal_bytes_read=%d skipped_generations=%d from_checkpoint=%v",
			ri.Events, ri.Matches, ri.Segments, ri.TornBytes, ri.MaxClock, ri.Generation,
			float64(ri.Duration.Microseconds())/1e3, recoverUsPerEvent(ri), ri.BytesRead, ri.SkippedGenerations, ri.FromCheckpoint)
	}
	for _, line := range haloBootReport(srv.router.Placement()) {
		log.Print(line)
	}
	// Start the wire listener before the gate opens so /stats never races
	// the field write; recovery already completed in newServer, so ring
	// admissions observe the replayed state.
	if *listenWire != "" {
		wln, err := net.Listen("tcp", *listenWire)
		if err != nil {
			log.Fatal(err)
		}
		srv.wire = newWireServer(srv, wln, cfg.tick, wireOptions{
			maxConns:     *wireMaxConns,
			idleTimeout:  *wireIdle,
			writeTimeout: *wireWriteTimeout,
			dedupWindow:  *wireDedupWindow,
			dedupClients: *wireDedupClients,
		})
		log.Printf("ftoa-serve: wire protocol v%d on %s (ring=%d batch=%d max-conns=%d dedup=%d/%d)",
			wire.Version, wln.Addr(), *admitRing, *admitBatch, *wireMaxConns, *wireDedupWindow, *wireDedupClients)
	}
	srv.http = hs
	srv.startTick(cfg.tick)
	gate.ready(srv.handler())
	log.Printf("ftoa-serve: %s matching on %s (mode=%s velocity=%g bounds=%s shards=%s halo=%gs retire=%s wal=%q rebalance=%v)",
		cfg.algorithm, ln.Addr(), cfg.mode, cfg.velocity, *boundsStr, *shards, cfg.halo, cfg.retire, cfg.walDir, cfg.rebalance)
	if cfg.rebalance {
		log.Printf("ftoa-serve: adaptive topology: split > %g/s, merge < %g/s, depth <= %d, cooldown %s, tau %s, forecast=%v",
			cfg.rebalSplit, cfg.rebalMerge, cfg.rebalDepth, cfg.rebalCooldown, cfg.rebalTau, cfg.rebalForecast)
	}

	// Graceful shutdown; see server.shutdown for the order.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("ftoa-serve: %v: draining", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.shutdown(ctx); err != nil {
		log.Fatalf("ftoa-serve: WAL close: %v", err)
	}
	log.Print("ftoa-serve: drained, WAL closed")
}
