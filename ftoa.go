// Package ftoa is a Go implementation of Flexible Two-sided Online Task
// Assignment in real-time spatial data (Tong et al., PVLDB 10(11), 2017):
// streams of spatially distributed tasks and workers are matched online,
// and idle workers are guided toward locations where tasks are predicted to
// appear, maximising the number of assigned pairs.
//
// The package re-exports the building blocks a platform needs:
//
//   - the problem model (Worker, Task, Instance) and feasibility rules;
//   - the two-step framework: offline per-(time slot, grid area) prediction
//     (package ftoa's Predictor implementations: HA, ARIMA, GBRT, PAQ, LR,
//     NN, HP-MSI) and offline guide generation (BuildGuide, Algorithm 1);
//   - the online algorithms: POLAR (Algorithm 2, competitive ratio ≈ 0.4),
//     POLAR-OP (Algorithm 3, ≈ 0.47, O(1) per arrival), the baselines
//     SimpleGreedy and GR, and the clairvoyant optimum OPT;
//   - the open-world streaming surface (NewMatcher/Session): workers and
//     tasks are admitted at arrival time and matched live, with no
//     pre-materialised instance. The session's output is a typed
//     lifecycle event stream (SessionEvent): commits and the deadline
//     expiries of objects that leave unserved — the model's two-sided
//     attrition made observable;
//   - the sharded serving layer (NewShardRouter): the service area
//     partitioned into a grid of independent sessions, admissions routed
//     by location, per-shard event streams merged behind a global cursor
//     — this is what cmd/ftoa-serve exposes over HTTP;
//   - the replay engine (NewEngine/Run), a thin driver that feeds a
//     recorded instance's arrival stream through the same session API,
//     simulating worker movement and validating matches. It reports the
//     matching and the replay's wall time; the paper's per-algorithm
//     memory series is taken by the experiment harness (cmd/ftoa-bench),
//     which measures every figure through one function;
//   - workload generators for the paper's synthetic sweeps and multi-day
//     city traces.
//
// Streaming quick start — push live arrivals into a session and drain
// committed pairs (see examples/streaming for a guided POLAR-OP session):
//
//	m, _ := ftoa.NewMatcher(ftoa.MatcherConfig{
//		Mode:     ftoa.Strict,
//		Velocity: 1,
//		Bounds:   ftoa.NewRect(0, 0, 100, 100),
//	})
//	sess := m.NewSession(ftoa.NewSimpleGreedy())
//	w, _ := sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(10, 10), Arrive: 0, Patience: 300})
//	r, _ := sess.AddTask(ftoa.Task{Loc: ftoa.Pt(11, 10), Release: 5, Expiry: 60})
//	for _, ev := range sess.DrainEvents(nil) {
//		if ev.Kind == ftoa.EventMatch {
//			fmt.Println(ev.Worker == w, ev.Task == r) // true true
//		}
//	}
//
// Replay quick start:
//
//	cfg := ftoa.DefaultSynthetic()
//	cfg.NumWorkers, cfg.NumTasks = 5000, 5000
//	instance, _ := cfg.Generate()
//	grid := ftoa.NewGrid(cfg.Bounds(), 25, 25)
//	slots := ftoa.NewSlotting(cfg.Horizon, 48)
//	wCounts, tCounts := cfg.ExpectedCounts(grid, slots)
//	g, _ := ftoa.BuildGuide(ftoa.GuideConfig{
//		Grid: grid, Slots: slots, Velocity: cfg.Velocity,
//		WorkerPatience: cfg.WorkerPatience, TaskExpiry: cfg.TaskExpiry,
//	}, wCounts, tCounts)
//	eng := ftoa.NewEngine(instance, ftoa.AssumeGuide)
//	result := eng.Run(ftoa.NewPOLAROP(g))
//	fmt.Println(result.Matching.Size())
package ftoa

import (
	"io"

	"ftoa/internal/core"
	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/predict"
	"ftoa/internal/shard"
	"ftoa/internal/shard/rebalance"
	"ftoa/internal/shard/wal"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
	"ftoa/internal/workload"
)

// Geometry and discretisation.
type (
	// Point is a location in the 2D plane.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Grid partitions a rectangle into equal cells ("grid areas").
	Grid = geo.Grid
	// Slotting partitions the timeline into equal time slots.
	Slotting = timeslot.Slotting
	// CellKey identifies one (time slot, grid area) prediction cell.
	CellKey = timeslot.CellKey
)

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewRect builds a rectangle from two corner coordinates.
func NewRect(x0, y0, x1, y1 float64) Rect { return geo.NewRect(x0, y0, x1, y1) }

// NewGrid builds a grid over bounds with cols×rows cells.
func NewGrid(bounds Rect, cols, rows int) *Grid { return geo.NewGrid(bounds, cols, rows) }

// NewSlotting partitions [0, horizon) into count slots.
func NewSlotting(horizon float64, count int) *Slotting { return timeslot.New(horizon, count) }

// NewAnchoredSlotting partitions a periodic timeline: SlotOf(t) resolves
// mod(t+offset, horizon), so an ever-growing clock (server uptime) keeps
// mapping to the right recurring slot — the primitive behind wall-clock
// anchored guide slotting in long-lived deployments.
func NewAnchoredSlotting(horizon float64, count int, offset float64) *Slotting {
	return timeslot.NewAnchored(horizon, count, offset)
}

// Problem model (Section 2 of the paper).
type (
	// Worker is a crowdsourcing worker: w = <Lw, Sw, Dw>.
	Worker = model.Worker
	// Task is a spatial task: r = <Lr, Sr, Dr>.
	Task = model.Task
	// Instance bundles one FTOA problem instance.
	Instance = model.Instance
	// Matching is a set of disjoint worker-task pairs.
	Matching = model.Matching
	// Pair is one assigned worker-task pair.
	Pair = model.Pair
	// Event is one arrival in an instance's merged online input sequence
	// (Instance.Events), the stream a replay feeds into a Session.
	Event = model.Event
	// EventKind distinguishes worker from task arrivals.
	EventKind = model.EventKind
)

// Arrival kinds of Event.
const (
	// WorkerArrival is the appearance of a new worker on the platform.
	WorkerArrival = model.WorkerArrival
	// TaskArrival is the release of a new task.
	TaskArrival = model.TaskArrival
)

// Feasible reports whether (w, r) satisfies Definition 4's deadline
// constraint under ideal guidance.
func Feasible(w *Worker, r *Task, velocity float64) bool {
	return model.Feasible(w, r, velocity)
}

// Offline guide generation (Section 4, Algorithm 1).
type (
	// GuideConfig parameterises guide construction.
	GuideConfig = guide.Config
	// Guide is the offline guide Ĝf consulted by POLAR and POLAR-OP.
	Guide = guide.Guide
	// CellPlan is the guide's pair layout for one prediction cell.
	CellPlan = guide.CellPlan
)

// NewGuideConfig is the guide configuration with the repository's one
// edge policy; see guide.NewConfig.
func NewGuideConfig(grid *Grid, slots *Slotting, velocity, patience, expiry float64) GuideConfig {
	return guide.NewConfig(grid, slots, velocity, patience, expiry)
}

// BuildGuide runs Algorithm 1 over predicted per-(slot, area) counts.
func BuildGuide(cfg GuideConfig, workerCounts, taskCounts []int) (*Guide, error) {
	return guide.Build(cfg, workerCounts, taskCounts)
}

// Online assignment (Section 5) and baselines (Section 6.1).
type (
	// Algorithm is an online assignment algorithm driven by a session.
	Algorithm = sim.Algorithm
	// RetirableAlgorithm is an Algorithm whose per-object state survives
	// arena retirement (Session.Retire): its Remap hook rewrites stored
	// handles through the old→new tables. All algorithms in this package
	// implement it.
	RetirableAlgorithm = sim.RetirableAlgorithm
	// Platform is the session-side API visible to algorithms.
	Platform = sim.Platform
	// Matcher is a configured factory for open-world matching sessions.
	Matcher = sim.Matcher
	// MatcherConfig parameterises a Matcher.
	MatcherConfig = sim.MatcherConfig
	// Session is one live open-world matching session: AddWorker/AddTask
	// admit arrivals, Advance drives timers and expiries, DrainEvents
	// returns the typed lifecycle stream, and Retire compacts away provably dead objects so long-lived sessions
	// stay bounded by their live population.
	Session = sim.Session
	// SessionEvent is one lifecycle event: a commit or a deadline expiry
	// of an unmatched worker/task.
	SessionEvent = sim.SessionEvent
	// SessionEventKind distinguishes lifecycle events.
	SessionEventKind = sim.SessionEventKind
	// Hints carries optional closed-world sizing information.
	Hints = sim.Hints
	// Engine replays recorded instances through the session API.
	Engine = sim.Engine
	// Result summarises one replay.
	Result = sim.Result
	// Mode selects match-validation semantics.
	Mode = sim.Mode
	// OPTOptions tunes the offline optimum computation.
	OPTOptions = core.OPTOptions
)

// Validation modes.
const (
	// Strict validates travel feasibility from the worker's simulated
	// position at commit time.
	Strict = sim.Strict
	// AssumeGuide commits any match between two available objects — the
	// paper's analysis counting.
	AssumeGuide = sim.AssumeGuide
)

// Lifecycle event kinds of SessionEvent.
const (
	// EventMatch is a committed worker-task pair.
	EventMatch = sim.EventMatch
	// EventWorkerExpired is a worker whose deadline passed unmatched —
	// it left the platform unserved.
	EventWorkerExpired = sim.EventWorkerExpired
	// EventTaskExpired is a task whose deadline passed unmatched.
	EventTaskExpired = sim.EventTaskExpired
)

// Sharded serving (package shard): one service area as a grid of
// independent sessions with a merged, cursor-addressed event stream.
// With ShardConfig.Halo set, border tasks are mirrored into the neighbor
// sessions whose workers could serve them and arbitrated so cross-border
// pairs match without any task ever committing twice.
type (
	// ShardRouter partitions MatcherConfig.Bounds into a grid of
	// per-region sessions and routes admissions by location.
	ShardRouter = shard.Router
	// ShardConfig parameterises a ShardRouter.
	ShardConfig = shard.Config
	// ShardEvent is a lifecycle event tagged with its shard and a global
	// sequence number.
	ShardEvent = shard.Event
	// ShardHandle names an object admitted through a router.
	ShardHandle = shard.Handle
	// ShardStats snapshots one shard.
	ShardStats = shard.Stats
	// ShardTotals is the router-wide lifetime count (ShardRouter.Totals):
	// the current shards' counters plus what every Rebalance, Checkpoint
	// and recovered checkpoint superseded, so it never falls back when
	// sessions are replaced.
	ShardTotals = shard.Totals
	// ShardPlacement maps a location to its owner region plus the
	// neighbor regions within a task's reach that receive its ghost copies.
	ShardPlacement = shard.Placement
	// WALOptions parameterises the per-shard write-ahead log: set it as
	// ShardConfig.WAL to make a router durable, and boot through
	// RecoverShardRouter to replay an existing log directory.
	WALOptions = wal.Options
	// WALSyncPolicy selects when appended WAL groups become durable.
	WALSyncPolicy = wal.SyncPolicy
	// ShardRecoveryInfo summarises one RecoverShardRouter call: segment
	// and record counts, torn/dangling bytes truncated from crashed
	// tails, the replayed event and match totals, the highest recovered
	// shard clock, and the log generation the recovered router writes.
	ShardRecoveryInfo = shard.RecoveryInfo
	// ShardAdmitter is the batched admission front of a ShardRouter:
	// producers enqueue arrivals into per-shard bounded lanes (buffered
	// channels) and each lane's single drainer admits timestamp-sorted
	// batches under one lock acquisition, with explicit backpressure
	// (a full lane refuses immediately). The concurrency engine behind
	// ftoa-serve's wire listener.
	ShardAdmitter = shard.Admitter
	// ShardAdmitterConfig sizes a ShardAdmitter (lane capacity and
	// max batch per lock acquisition).
	ShardAdmitterConfig = shard.AdmitterConfig
	// ShardAdmitResult is one lane admission's outcome; H and Epoch
	// form the receipt ShardRouter.WithdrawWorker/WithdrawTask accepts.
	ShardAdmitResult = shard.AdmitResult
	// ShardTopology is a quadtree refinement of the base shard grid:
	// the region layout a ShardRouter routes over, changed online via
	// ShardRouter.Rebalance (usually driven by a RebalanceSupervisor).
	ShardTopology = shard.Topology
	// ShardRebalanceInfo summarises one migration: an online topology
	// change (ShardRouter.Rebalance) or a checkpoint of the current
	// topology (ShardRouter.Checkpoint — the live population re-admitted
	// into a sealed WAL generation, the generations before it deleted, so
	// the next RecoverShardRouter reads the live set instead of the
	// history; a graceful shutdown calls it before closing the WAL).
	ShardRebalanceInfo = shard.RebalanceInfo
	// RebalanceSupervisor watches per-region demand and splits hot
	// regions / merges cold sibling quads via ShardRouter.Rebalance.
	RebalanceSupervisor = rebalance.Supervisor
	// RebalanceConfig holds the supervisor's policy knobs (split and
	// merge thresholds, depth cap, cooldown and EWMA time constant).
	RebalanceConfig = rebalance.Config
	// ShardEventSub is one subscriber's cursor into the router's event
	// log (ShardRouter.Subscribe): Next copies one page of retained
	// events under the log's mutex — the same read ShardRouter.Events
	// does — and Wait blocks until an append moves the head past the
	// cursor: the push primitive behind the wire event pusher and GET
	// /events long-polling. ShardRouter.Matches is the same page read
	// with only its commits copied out, addressed by the same Seq cursor.
	ShardEventSub = shard.EventSub
	// ShardEventLogStats snapshots the event log
	// (ShardRouter.EventLogStats): subscriber count, the readable window
	// [Oldest, Frontier) read as one consistent pair, its capacity, and
	// the published and wakeup totals.
	ShardEventLogStats = shard.EventLogStats
)

// MaxShardSplitDepth bounds how many times one base grid cell can be
// quartered by rebalancing.
const MaxShardSplitDepth = shard.MaxSplitDepth

// NewRebalanceSupervisor validates cfg and returns a supervisor driving
// r's topology; call Tick from the same single goroutine that advances
// the router's clock.
func NewRebalanceSupervisor(r *ShardRouter, cfg RebalanceConfig) (*RebalanceSupervisor, error) {
	return rebalance.New(r, cfg)
}

// WAL sync policies (see WALOptions.Policy).
const (
	// WALSyncInterval (the default) group-commits on a background flush
	// period: a crash loses at most one interval of acknowledged work.
	WALSyncInterval = wal.SyncInterval
	// WALSyncAlways fsyncs every operation group before acknowledging.
	WALSyncAlways = wal.SyncAlways
	// WALSyncNone only fsyncs on flush/close.
	WALSyncNone = wal.SyncNone
)

// RecoverShardRouter reconstructs a durable ShardRouter from the
// write-ahead log under cfg.WAL.Dir — replaying each shard's admissions,
// withdrawals and recorded arbitration outcomes into a bit-identical
// merged event stream and matched set — and opens a fresh log generation
// for it. An empty directory starts a fresh router. Corrupt tails from a
// crash are truncated, reported in ShardRecoveryInfo, and never refuse
// the boot; a config that does not fingerprint-match the log does. A
// directory left by a ShardRouter.Checkpoint (ShardRecoveryInfo.
// FromCheckpoint) replays only the live population it sealed: lifetime
// totals and the sequence counter carry on, receipts and event cursors
// from before it are stale.
func RecoverShardRouter(cfg ShardConfig) (*ShardRouter, *ShardRecoveryInfo, error) {
	return shard.Recover(cfg)
}

// RetiredHandle marks a dropped object in the remap tables passed to
// RetirableAlgorithm.Remap and MatcherConfig.OnRetire.
const RetiredHandle = sim.RetiredHandle

// ErrShardCursorEvicted is returned by ShardRouter.Events, Matches and
// ShardEventSub.Next when the cursor points below the retention window.
var ErrShardCursorEvicted = shard.ErrEvicted

// ErrStaleShardHandle is returned by ShardRouter.WithdrawWorker and
// WithdrawTask when the receipt's epoch predates the shard's arena epoch
// (a retirement may have remapped the handle).
var ErrStaleShardHandle = shard.ErrStaleHandle

// NewShardAdmitter starts one lane and one drainer goroutine per shard
// of r; Close it before closing the router's WAL so lane-buffered
// admissions become durable.
func NewShardAdmitter(r *ShardRouter, cfg ShardAdmitterConfig) *ShardAdmitter {
	return shard.NewAdmitter(r, cfg)
}

// NewShardRouter builds a sharded serving layer over the streaming
// session API: cfg.Matcher.Bounds is partitioned into a Cols×Rows grid,
// one session (and one algorithm instance) per region, admissions routed
// by location, per-shard event streams merged behind a global cursor.
func NewShardRouter(cfg ShardConfig) (*ShardRouter, error) { return shard.NewRouter(cfg) }

// HaloForWindow derives the natural ShardConfig.Halo width from the
// shared worker velocity and the workload's deadline window (typically
// the task expiry Dr): a worker waiting farther from a task can never
// serve it, so a wider halo only adds mirroring cost.
func HaloForWindow(velocity, window float64) float64 { return shard.HaloForWindow(velocity, window) }

// NewMatcher validates cfg and returns a factory for open-world streaming
// sessions: workers and tasks are admitted at arrival time via
// Session.AddWorker/AddTask (returning stable handles), Session.Advance
// drives timers and expiry, and committed pairs surface as EventMatch
// events through the OnEvent callback or Session.DrainEvents.
func NewMatcher(cfg MatcherConfig) (*Matcher, error) { return sim.NewMatcher(cfg) }

// NewEngine prepares a replay engine for the instance: a thin driver that
// feeds the recorded arrival stream through the same open-world session
// API live deployments use. Use the returned engine's Clone method to
// replay the same instance concurrently on several goroutines.
func NewEngine(in *Instance, mode Mode) *Engine { return sim.NewEngine(in, mode) }

// NewPOLAR creates the POLAR algorithm (Algorithm 2) bound to a guide.
func NewPOLAR(g *Guide) Algorithm { return core.NewPOLAR(g) }

// NewPOLAROP creates the POLAR-OP algorithm (Algorithm 3) bound to a guide.
func NewPOLAROP(g *Guide) Algorithm { return core.NewPOLAROP(g) }

// NewSimpleGreedy creates the nearest-feasible-neighbour baseline.
func NewSimpleGreedy() Algorithm { return core.NewSimpleGreedy() }

// NewGR creates the batch-window baseline with the given window length.
func NewGR(window float64) Algorithm { return core.NewGR(window) }

// NewHybrid creates the POLAR-OP+Greedy extension (beyond the paper):
// guide-first assignment with a nearest-feasible-neighbour fallback on
// guide misses. It weakly dominates both parents; see core.Hybrid.
func NewHybrid(g *Guide) Algorithm { return core.NewHybrid(g) }

// NewTGOA creates the two-sided random-order baseline of Tong et al.
// (ICDE 2016) — the prior state of the art (competitive ratio 0.25) that
// the paper's POLAR-OP nearly doubles. Greedy for the first half of
// arrivals, optimal-matching-guided for the second half.
func NewTGOA() Algorithm { return core.NewTGOA() }

// OPT computes the offline optimal matching (Definition 5's denominator).
func OPT(in *Instance, opts OPTOptions) Matching { return core.OPT(in, opts) }

// Offline prediction (Sections 3.1.1 and 6.3).
type (
	// Predictor is one of the paper's prediction methods.
	Predictor = predict.Predictor
	// Series is a per-(day, slot, area) count history with covariates.
	Series = predict.Series
)

// NewSeries assembles a prediction history; see predict.NewSeries.
func NewSeries(days, slots, areas int, counts []int, weather []float64, dow []int) (*Series, error) {
	return predict.NewSeries(days, slots, areas, counts, weather, dow)
}

// The seven predictors of Table 5.
func NewHA() Predictor        { return predict.NewHA() }
func NewARIMA() Predictor     { return predict.NewARIMA() }
func NewGBRT() Predictor      { return predict.NewGBRT() }
func NewPAQ() Predictor       { return predict.NewPAQ() }
func NewLR() Predictor        { return predict.NewLR() }
func NewNeuralNet() Predictor { return predict.NewNeuralNet() }
func NewHPMSI() Predictor     { return predict.NewHPMSI() }

// PredictDay runs a fitted predictor over every cell of one day.
func PredictDay(p Predictor, s *Series, day int) []float64 { return predict.PredictDay(p, s, day) }

// ActualDay extracts one day's realised counts, flattened like PredictDay.
func ActualDay(s *Series, day int) []float64 { return predict.ActualDay(s, day) }

// ToCounts rounds forecasts to the integer counts BuildGuide consumes.
func ToCounts(pred []float64) []int { return predict.ToCounts(pred) }

// Forecast is the framework's HP-MSI prediction step; see predict.Forecast.
func Forecast(workers, tasks *Series, days []int) (wPred, tPred []int, err error) {
	return predict.Forecast(workers, tasks, days)
}

// ErrorRate is the paper's ER prediction metric.
func ErrorRate(actual, predicted []float64, slots, areas int) float64 {
	return predict.ErrorRate(actual, predicted, slots, areas)
}

// RMSLE is the paper's root mean squared logarithmic error metric.
func RMSLE(actual, predicted []float64, slots, areas int) float64 {
	return predict.RMSLE(actual, predicted, slots, areas)
}

// Workload generation (Section 6.1).
type (
	// Synthetic configures the Table 4 synthetic generator.
	Synthetic = workload.Synthetic
	// City configures the multi-day taxi-calling trace generator.
	City = workload.City
	// Trace is a generated multi-day city history.
	Trace = workload.Trace
)

// DefaultSynthetic returns the bold defaults of Table 4.
func DefaultSynthetic() Synthetic { return workload.DefaultSynthetic() }

// LoadInstanceCSV reads an instance from the CSV format ftoa-gen emits, so
// platforms can replay their own arrival logs; see workload.LoadInstanceCSV.
func LoadInstanceCSV(r io.Reader, velocity float64) (*Instance, error) {
	return workload.LoadInstanceCSV(r, velocity)
}

// LoadCountsCSV reads a count history from the CSV format ftoa-gen -counts
// emits, ready for NewSeries; see workload.LoadCountsCSV.
func LoadCountsCSV(r io.Reader) (days, slots, areas int, workers, tasks []int, weather []float64, err error) {
	return workload.LoadCountsCSV(r)
}

// Beijing returns a city configuration shaped like the paper's Beijing
// dataset (a synthetic substitute for the proprietary trace; see City).
func Beijing() City { return workload.Beijing() }

// Hangzhou returns a city configuration shaped like the paper's Hangzhou
// dataset.
func Hangzhou() City { return workload.Hangzhou() }
