// Benchmarks regenerating every table and figure of the paper's evaluation
// (`ftoa-bench -list` is the experiment index), plus micro-benchmarks of the
// core operations behind the paper's complexity claims (O(1) per-arrival
// processing for POLAR/POLAR-OP versus search-based baselines).
//
// The macro benchmarks run entire experiments, so they default to a small
// population scale; set FTOA_BENCH_SCALE (e.g. 0.3 or 1.0 for paper scale)
// to rescale them. Matching sizes are attached as custom metrics so `go
// test -bench` output doubles as a results table.
package ftoa_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ftoa"
	"ftoa/internal/experiments"
	"ftoa/internal/flow"
	"ftoa/internal/mathx"
	"ftoa/internal/sim"
)

// benchScale returns the population scale for macro benchmarks.
func benchScale() float64 {
	if v := os.Getenv("FTOA_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

// benchExperiment runs one registered experiment per iteration and reports
// the POLAR-OP and OPT matching sizes of the middle row as metrics.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentOpts(b, id, experiments.Options{Scale: benchScale()})
}

// benchExperimentOpts is benchExperiment with explicit options, so the
// parallel variants can pin a worker-pool size.
func benchExperimentOpts(b *testing.B, id string, opts experiments.Options) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var res *experiments.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = runner(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(res.Rows) > 0 {
		mid := res.Rows[len(res.Rows)/2]
		if m, ok := mid.ByAlgo[experiments.AlgoPOLAROP]; ok {
			b.ReportMetric(float64(m.MatchingSize), "polar-op-matched")
		}
		if m, ok := mid.ByAlgo[experiments.AlgoOPT]; ok {
			b.ReportMetric(float64(m.MatchingSize), "opt-matched")
		}
		if m, ok := mid.ByAlgo[experiments.AlgoSimpleGreedy]; ok {
			b.ReportMetric(float64(m.MatchingSize), "greedy-matched")
		}
	}
}

// Figure 4: synthetic sweeps over |W|, |R|, Dr and grid resolution.
func BenchmarkFig4VaryW(b *testing.B)        { benchExperiment(b, "fig4-w") }
func BenchmarkFig4VaryR(b *testing.B)        { benchExperiment(b, "fig4-r") }
func BenchmarkFig4VaryDeadline(b *testing.B) { benchExperiment(b, "fig4-dr") }
func BenchmarkFig4VaryGrid(b *testing.B)     { benchExperiment(b, "fig4-g") }

// Figure 5: time slots, scalability, and the two city traces.
func BenchmarkFig5VarySlots(b *testing.B)   { benchExperiment(b, "fig5-t") }
func BenchmarkFig5Scalability(b *testing.B) { benchExperiment(b, "fig5-scale") }
func BenchmarkFig5Beijing(b *testing.B)     { benchExperiment(b, "fig5-bj") }
func BenchmarkFig5Hangzhou(b *testing.B)    { benchExperiment(b, "fig5-hz") }

// BenchmarkFig5ScalabilityParallel is BenchmarkFig5Scalability with the
// experiment worker pool sized to GOMAXPROCS: sweep rows and the
// algorithms within each row replay concurrently on private engine
// clones. Compare against the sequential benchmark in the same build to
// measure the harness speedup on a multi-core runner (matching sizes are
// bit-identical either way; memory series are omitted in parallel mode).
func BenchmarkFig5ScalabilityParallel(b *testing.B) {
	benchExperimentOpts(b, "fig5-scale", experiments.Options{Scale: benchScale(), Parallelism: -1})
}

// Figure 6: temporal and spatial distribution sweeps.
func BenchmarkFig6VaryMu(b *testing.B)    { benchExperiment(b, "fig6-mu") }
func BenchmarkFig6VarySigma(b *testing.B) { benchExperiment(b, "fig6-sigma") }
func BenchmarkFig6VaryMean(b *testing.B)  { benchExperiment(b, "fig6-mean") }
func BenchmarkFig6VaryCov(b *testing.B)   { benchExperiment(b, "fig6-cov") }

// Table 5: the prediction method comparison.
func BenchmarkTable5Prediction(b *testing.B) { benchExperiment(b, "table5") }

// Ablation: empirical competitive ratios for Theorems 1-2.
func BenchmarkCompetitiveRatio(b *testing.B) { benchExperiment(b, "ratio") }

// benchSetup prepares a default synthetic instance plus its guide at the
// benchmark scale.
func benchSetup(b *testing.B) (*ftoa.Instance, *ftoa.Guide) {
	b.Helper()
	cfg := ftoa.DefaultSynthetic()
	n := int(20000 * benchScale())
	if n < 500 {
		n = 500
	}
	cfg.NumWorkers, cfg.NumTasks = n, n
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	side := 50
	if benchScale() < 1 {
		side = int(50 * benchScale())
		if side < 8 {
			side = 8
		}
	}
	grid := ftoa.NewGrid(cfg.Bounds(), side, side)
	slots := ftoa.NewSlotting(cfg.Horizon, 48)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	g, err := ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
	}, wc, tc)
	if err != nil {
		b.Fatal(err)
	}
	return in, g
}

// BenchmarkGuideBuild measures Algorithm 1: constructing the offline guide
// from predicted counts (the paper's offline preprocessing).
func BenchmarkGuideBuild(b *testing.B) {
	cfg := ftoa.DefaultSynthetic()
	n := int(20000 * benchScale())
	if n < 500 {
		n = 500
	}
	cfg.NumWorkers, cfg.NumTasks = n, n
	side := int(50 * benchScale())
	if side < 8 {
		side = 8
	}
	grid := ftoa.NewGrid(cfg.Bounds(), side, side)
	slots := ftoa.NewSlotting(cfg.Horizon, 48)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	gcfg := ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftoa.BuildGuide(gcfg, wc, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplay measures one full replay of an online algorithm, reporting
// per-arrival latency — the paper's O(1) claim made visible.
func benchReplay(b *testing.B, mk func(*ftoa.Guide) ftoa.Algorithm) {
	in, g := benchSetup(b)
	eng := ftoa.NewEngine(in, ftoa.AssumeGuide)
	arrivals := float64(len(in.Workers) + len(in.Tasks))
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched = eng.Run(mk(g)).Matching.Size()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arrivals, "ns/arrival")
	b.ReportMetric(float64(matched), "matched")
}

func BenchmarkPOLARReplay(b *testing.B) {
	benchReplay(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAR(g) })
}

func BenchmarkPOLAROPReplay(b *testing.B) {
	benchReplay(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAROP(g) })
}

func BenchmarkSimpleGreedyReplay(b *testing.B) {
	benchReplay(b, func(*ftoa.Guide) ftoa.Algorithm { return ftoa.NewSimpleGreedy() })
}

func BenchmarkGRReplay(b *testing.B) {
	benchReplay(b, func(*ftoa.Guide) ftoa.Algorithm { return ftoa.NewGR(0.25) })
}

// BenchmarkOPT measures the clairvoyant matching used as the paper's upper
// bound.
func BenchmarkOPT(b *testing.B) {
	in, _ := benchSetup(b)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = ftoa.OPT(in, ftoa.OPTOptions{MaxCandidates: 64}).Size()
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "matched")
}

// BenchmarkStrictReplay measures the honest-platform validation mode
// (simulated movement plus deadline rechecks) against the paper counting.
func BenchmarkStrictReplay(b *testing.B) {
	in, g := benchSetup(b)
	eng := sim.NewEngine(in, sim.Strict)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = eng.Run(ftoa.NewPOLAROP(g)).Matching.Size()
	}
	b.StopTimer()
	b.ReportMetric(float64(size), "matched")
}

// BenchmarkHopcroftKarp measures the bipartite-matching substrate at a
// representative density.
func BenchmarkHopcroftKarp(b *testing.B) {
	rng := mathx.NewRNG(9)
	const nl, nr, deg = 2000, 2000, 8
	adj := make([][]int32, nl)
	for u := range adj {
		for k := 0; k < deg; k++ {
			adj[u] = append(adj[u], int32(rng.Intn(nr)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, size := flow.HopcroftKarp(nl, nr, adj)
		if size == 0 {
			b.Fatal("empty matching")
		}
	}
}

// BenchmarkMinCostGuide is the ablation for the paper's note that a
// min-cost max-flow yields a travel-cost-minimising guide of the same
// cardinality.
func BenchmarkMinCostGuide(b *testing.B) {
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 2000, 2000
	grid := ftoa.NewGrid(cfg.Bounds(), 16, 16)
	slots := ftoa.NewSlotting(cfg.Horizon, 48)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	gcfg := ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
		MinCost:        true,
	}
	b.ResetTimer()
	var travel float64
	for i := 0; i < b.N; i++ {
		g, err := ftoa.BuildGuide(gcfg, wc, tc)
		if err != nil {
			b.Fatal(err)
		}
		travel = g.TravelCost
	}
	b.StopTimer()
	b.ReportMetric(travel, "travel-cost")
}

// benchStream measures pushing a recorded arrival stream through the
// open-world session API directly — AddWorker/AddTask per arrival, no
// replay engine — reporting per-arrival latency. This is the acceptance
// gate that the streaming redesign keeps the paper's O(1) claim intact.
func benchStream(b *testing.B, mk func(*ftoa.Guide) ftoa.Algorithm) {
	in, g := benchSetup(b)
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.AssumeGuide,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		Hints: ftoa.Hints{
			ExpectedWorkers: len(in.Workers),
			ExpectedTasks:   len(in.Tasks),
			Horizon:         in.Horizon,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	events := in.Events()
	sess := m.NewSession(mk(g))
	arrivals := float64(len(events))
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Reset(mk(g))
		for _, ev := range events {
			var err error
			switch ev.Kind {
			case ftoa.WorkerArrival:
				_, err = sess.AddWorker(in.Workers[ev.Index])
			case ftoa.TaskArrival:
				_, err = sess.AddTask(in.Tasks[ev.Index])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		sess.Finish()
		matched = sess.Matching().Size()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arrivals, "ns/arrival")
	b.ReportMetric(float64(matched), "matched")
}

// benchStreamRetired is benchStream with generational retirement on: the
// session retires its arenas 24 times per replayed day (the serving-layer
// cadence), so the reported ns/arrival includes the amortized compaction
// and remap cost. Gate: must stay within 2x of the plain Stream numbers.
func benchStreamRetired(b *testing.B, mk func(*ftoa.Guide) ftoa.Algorithm) {
	in, g := benchSetup(b)
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.AssumeGuide,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
		Hints: ftoa.Hints{
			ExpectedWorkers: len(in.Workers),
			ExpectedTasks:   len(in.Tasks),
			Horizon:         in.Horizon,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	events := in.Events()
	every := in.Horizon / 24
	sess := m.NewSession(mk(g))
	arrivals := float64(len(events))
	var evbuf []ftoa.SessionEvent
	var matched, retired int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Reset(mk(g))
		lastRetire := 0.0
		for _, ev := range events {
			var err error
			switch ev.Kind {
			case ftoa.WorkerArrival:
				_, err = sess.AddWorker(in.Workers[ev.Index])
			case ftoa.TaskArrival:
				_, err = sess.AddTask(in.Tasks[ev.Index])
			}
			if err != nil {
				b.Fatal(err)
			}
			if now := sess.Now(); now >= lastRetire+every {
				evbuf = sess.DrainEvents(evbuf[:0])
				sess.CompactEvents()
				w, t := sess.Retire(now)
				retired += w + t
				lastRetire = now
			}
		}
		sess.Finish()
		matched = sess.Matches()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arrivals, "ns/arrival")
	b.ReportMetric(float64(matched), "matched")
	b.ReportMetric(float64(retired)/float64(b.N), "retired")
}

func BenchmarkPOLARStream(b *testing.B) {
	benchStream(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAR(g) })
}

func BenchmarkPOLAROPStream(b *testing.B) {
	benchStream(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAROP(g) })
}

func BenchmarkSimpleGreedyStream(b *testing.B) {
	benchStream(b, func(*ftoa.Guide) ftoa.Algorithm { return ftoa.NewSimpleGreedy() })
}

func BenchmarkPOLARStreamRetired(b *testing.B) {
	benchStreamRetired(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAR(g) })
}

func BenchmarkPOLAROPStreamRetired(b *testing.B) {
	benchStreamRetired(b, func(g *ftoa.Guide) ftoa.Algorithm { return ftoa.NewPOLAROP(g) })
}

// BenchmarkSessionLongLived is the long-lived serving soak: ONE Strict
// session (never Reset, never Finished) absorbs the same synthetic day
// per iteration, timestamps shifted by the horizon each round, retiring
// on the deadline-window cadence. With retirement the per-round cost and
// the live arenas are flat no matter how many rounds have gone before —
// the bounded-memory claim as a benchmark; the companion test
// TestSessionLongLivedSoak asserts the live-arena bound, and allocs/op
// (reported per round) measures the steady-state allocation rate.
func BenchmarkSessionLongLived(b *testing.B) {
	cfg := ftoa.DefaultSynthetic()
	n := int(20000 * benchScale())
	if n < 400 {
		n = 400
	}
	cfg.NumWorkers, cfg.NumTasks = n, n
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	events := in.Events()
	window := cfg.WorkerPatience
	if cfg.TaskExpiry > window {
		window = cfg.TaskExpiry
	}
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.Strict,
		Velocity: in.Velocity,
		Bounds:   in.Bounds,
	})
	if err != nil {
		b.Fatal(err)
	}
	sess := m.NewSession(ftoa.NewSimpleGreedy())
	arrivals := float64(len(events))
	var evbuf []ftoa.SessionEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shift := float64(i) * in.Horizon
		lastRetire := sess.Now()
		for _, ev := range events {
			var err error
			switch ev.Kind {
			case ftoa.WorkerArrival:
				w := in.Workers[ev.Index]
				w.Arrive = ev.Time + shift
				_, err = sess.AddWorker(w)
			case ftoa.TaskArrival:
				t := in.Tasks[ev.Index]
				t.Release = ev.Time + shift
				_, err = sess.AddTask(t)
			}
			if err != nil {
				b.Fatal(err)
			}
			if now := sess.Now(); now >= lastRetire+window {
				evbuf = sess.DrainEvents(evbuf[:0])
				sess.CompactEvents()
				sess.Retire(now)
				lastRetire = now
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arrivals, "ns/arrival")
	b.ReportMetric(float64(sess.NumWorkers()+sess.NumTasks()), "live-arena")
	b.ReportMetric(float64(sess.AdmittedWorkers()+sess.AdmittedTasks()), "admitted")
	b.ReportMetric(float64(sess.Matches()), "matched")
}

// benchRouterStream measures the sharded serving layer end to end: one
// recorded day routed by location through a cols x rows ShardRouter
// (admission -> shard lock -> session -> event sequencing), reporting
// per-arrival latency. Compare against BenchmarkSimpleGreedyStream to see
// the routing + sequencing overhead, and 1x1 vs 4x4 to see how per-shard
// population shrinkage pays for it. A positive halo additionally mirrors
// border admissions into reachable neighbor shards (ghost admissions +
// claim arbitration), recovering the cross-border matched size the
// disjoint grid loses — the matched metric quantifies the trade.
func benchRouterStream(b *testing.B, cols, rows int, halo float64) {
	benchRouterStreamWAL(b, cols, rows, halo, nil)
}

// benchRouterStreamWAL is benchRouterStream with an optional per-
// iteration WAL factory (generations are write-once, so every
// iteration logs into a fresh directory). The ns/arrival delta against
// the nil-WAL twin is the durability overhead; CI gates the buffered-
// mode delta at 2x.
func benchRouterStreamWAL(b *testing.B, cols, rows int, halo float64, mkWAL func(i int) *ftoa.WALOptions) {
	in, _ := benchSetup(b)
	events := in.Events()
	arrivals := float64(len(events))
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Construction and final close are untimed in both the WAL'd and
		// plain variants: the gated number is per-arrival serving cost,
		// not the one-off cost of creating (or fsyncing shut) a
		// generation's segment files.
		b.StopTimer()
		var walOpts *ftoa.WALOptions
		if mkWAL != nil {
			walOpts = mkWAL(i)
		}
		router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
			Matcher: ftoa.MatcherConfig{
				Mode:     ftoa.AssumeGuide,
				Velocity: in.Velocity,
				Bounds:   in.Bounds,
				Hints: ftoa.Hints{
					ExpectedWorkers: len(in.Workers),
					ExpectedTasks:   len(in.Tasks),
					Horizon:         in.Horizon,
				},
			},
			Cols:         cols,
			Rows:         rows,
			Halo:         halo,
			NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
			WAL:          walOpts,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ev := range events {
			switch ev.Kind {
			case ftoa.WorkerArrival:
				_, _, err = router.AddWorker(in.Workers[ev.Index])
			case ftoa.TaskArrival:
				_, _, err = router.AddTask(in.Tasks[ev.Index])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		router.Finish()
		b.StopTimer()
		matched = 0
		for _, st := range router.StatsAll(nil) {
			matched += st.Matches
		}
		if walOpts != nil {
			if err := router.WALClose(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arrivals, "ns/arrival")
	b.ReportMetric(float64(matched), "matched")
}

func BenchmarkShardRouter1x1Stream(b *testing.B) { benchRouterStream(b, 1, 1, 0) }
func BenchmarkShardRouter4x4Stream(b *testing.B) { benchRouterStream(b, 4, 4, 0) }

// BenchmarkShardRouterHalo4x4 is the halo-on twin of the 4x4 stream
// bench: the matched metric must recover the unsharded size (the quality
// gate asserts >=90%) and ns/arrival prices the ghost mirroring + claim
// arbitration. The width is a quarter of the feasibility bound
// (velocity x Dr): nearest-neighbor matching commits far inside the
// worst-case reach, so the fractional halo captures ~99% of the border
// matches at a fraction of the mirroring cost — the full bound recovers
// the last match but degenerates toward whole-area replication when the
// halo rivals the cell size (see the README trade-off table).
func BenchmarkShardRouterHalo4x4(b *testing.B) {
	cfg := ftoa.DefaultSynthetic()
	benchRouterStream(b, 4, 4, ftoa.HaloForWindow(cfg.Velocity, cfg.TaskExpiry)/4)
}

// BenchmarkAdmitterHandoff prices the layer between the wire decoder and
// the shard lock: producers hand arrivals to a ShardAdmitter the way a wire
// connection does — a batch of 64 enqueued, then one wait for its results —
// and the lanes' drainers admit them into a disjoint 4×4 greedy router.
// ns/admission therefore holds the hand-off (enqueue, drainer wake-up,
// sort, completion) on top of BenchmarkShardRouter4x4Stream's admission
// itself; allocs/admission is the figure CI holds. The hand-off itself
// allocates nothing (the op travels in the producer's result slot, the
// drainers sort in place), so it counts the router's admissions alone.
func BenchmarkAdmitterHandoff(b *testing.B) {
	for _, producers := range []int{1, 8} {
		b.Run(strconv.Itoa(producers)+"producers", func(b *testing.B) { benchAdmitterHandoff(b, producers) })
	}
}

func benchAdmitterHandoff(b *testing.B, producers int) {
	const batch = 64
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 128*batch, 128*batch
	in, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	events := in.Events()
	var mallocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
			Matcher:      ftoa.MatcherConfig{Mode: ftoa.AssumeGuide, Velocity: in.Velocity, Bounds: in.Bounds},
			Cols:         4,
			Rows:         4,
			NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
		})
		if err != nil {
			b.Fatal(err)
		}
		adm := ftoa.NewShardAdmitter(router, ftoa.ShardAdmitterConfig{})
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		var pw sync.WaitGroup
		for p := 0; p < producers; p++ {
			pw.Add(1)
			go func() {
				defer pw.Done()
				var res [batch]ftoa.ShardAdmitResult
				var wg sync.WaitGroup
				// Batch k of the trace belongs to producer k mod producers.
				for lo := p * batch; lo < len(events); lo += producers * batch {
					for j, ev := range events[lo:min(lo+batch, len(events))] {
						ok := false
						switch ev.Kind {
						case ftoa.WorkerArrival:
							ok = adm.AddWorker(in.Workers[ev.Index], &res[j], &wg)
						case ftoa.TaskArrival:
							ok = adm.AddTask(in.Tasks[ev.Index], &res[j], &wg)
						}
						if !ok {
							b.Error("refused: at most 8 batches of 64 are in flight on 1024-slot lanes")
							return
						}
					}
					wg.Wait()
				}
			}()
		}
		pw.Wait()
		adm.Close()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		if got := router.Totals(); got.Workers+got.Tasks != len(events) {
			b.Fatalf("%d of %d arrivals admitted", got.Workers+got.Tasks, len(events))
		}
		b.StartTimer()
	}
	b.StopTimer()
	admissions := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/admissions, "ns/admission")
	b.ReportMetric(float64(mallocs)/admissions, "allocs/admission")
}

// benchWAL builds a fresh per-iteration WAL directory factory at the
// given fsync policy.
func benchWAL(b *testing.B, policy ftoa.WALSyncPolicy) func(i int) *ftoa.WALOptions {
	b.Helper()
	root := b.TempDir()
	return func(i int) *ftoa.WALOptions {
		return &ftoa.WALOptions{Dir: filepath.Join(root, strconv.Itoa(i)), Policy: policy}
	}
}

// The WAL'd twins of the router stream benches: buffered group commit
// (the default SyncInterval policy — what a durable deployment runs) on
// real files. CI gates BenchmarkShardRouter4x4WALStream at 2x the
// ns/arrival of BenchmarkShardRouter4x4Stream; SyncAlways prices a full
// fsync per arrival and is reported for reference, not gated.
func BenchmarkShardRouter1x1WALStream(b *testing.B) {
	benchRouterStreamWAL(b, 1, 1, 0, benchWAL(b, ftoa.WALSyncInterval))
}

func BenchmarkShardRouter4x4WALStream(b *testing.B) {
	benchRouterStreamWAL(b, 4, 4, 0, benchWAL(b, ftoa.WALSyncInterval))
}

func BenchmarkShardRouterHalo4x4WALStream(b *testing.B) {
	cfg := ftoa.DefaultSynthetic()
	benchRouterStreamWAL(b, 4, 4, ftoa.HaloForWindow(cfg.Velocity, cfg.TaskExpiry)/4,
		benchWAL(b, ftoa.WALSyncInterval))
}

func BenchmarkShardRouter4x4WALSyncAlways(b *testing.B) {
	benchRouterStreamWAL(b, 4, 4, 0, benchWAL(b, ftoa.WALSyncAlways))
}

// BenchmarkWALRecover measures boot-time replay: one logged day (4x4,
// buffered) recovered back into a router, reporting per-event replay
// latency — the price of a crash restart.
func BenchmarkWALRecover(b *testing.B) {
	in, _ := benchSetup(b)
	events := in.Events()
	cfg := ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     ftoa.AssumeGuide,
			Velocity: in.Velocity,
			Bounds:   in.Bounds,
			Hints: ftoa.Hints{
				ExpectedWorkers: len(in.Workers),
				ExpectedTasks:   len(in.Tasks),
				Horizon:         in.Horizon,
			},
		},
		Cols:         4,
		Rows:         4,
		NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
		WAL:          &ftoa.WALOptions{Dir: filepath.Join(b.TempDir(), "wal")},
	}
	router, err := ftoa.NewShardRouter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range events {
		switch ev.Kind {
		case ftoa.WorkerArrival:
			_, _, err = router.AddWorker(in.Workers[ev.Index])
		case ftoa.TaskArrival:
			_, _, err = router.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := router.WALClose(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, info, err := ftoa.RecoverShardRouter(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Recovered || info.Events == 0 {
			b.Fatalf("recovered nothing: %+v", info)
		}
		b.StopTimer()
		// Each recovery opens (and must discard) a next-generation log.
		if err := rec.WALClose(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/arrival")
}

// durableShapeConfig is the router the end-to-end benchmark's
// durable-fanout workload boots (benchmark/bench/workload.go): 2x2
// SimpleGreedy, Strict, halo = velocity 2 x a 2 s reach window, arenas
// retired every 5 s of session time, ftoa-serve's default retention, no
// population hints.
func durableShapeConfig(dir string) ftoa.ShardConfig {
	return ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     ftoa.Strict,
			Velocity: 2,
			Bounds:   ftoa.NewRect(0, 0, 100, 100),
		},
		Cols:           2,
		Rows:           2,
		Halo:           ftoa.HaloForWindow(2, 2),
		NewAlgorithm:   func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
		Retention:      1 << 16,
		RetireInterval: 5,
		WAL:            &ftoa.WALOptions{Dir: dir},
	}
}

// fillDurableShape logs n uniform arrivals (half workers with patience 4,
// half tasks with expiry 2) spread over span seconds of session time —
// the benchmark's throw-away instance admits its 100k requests in about
// 0.6 s, well inside one retire interval, so nothing has retired when the
// log is recovered — and closes the log cleanly.
func fillDurableShape(tb testing.TB, cfg ftoa.ShardConfig, n int, span float64, seed uint64) {
	tb.Helper()
	if err := admitDurableShape(tb, cfg, n, span, seed).WALClose(); err != nil {
		tb.Fatal(err)
	}
}

// admitDurableShape is fillDurableShape with the router left open.
func admitDurableShape(tb testing.TB, cfg ftoa.ShardConfig, n int, span float64, seed uint64) *ftoa.ShardRouter {
	tb.Helper()
	router, err := ftoa.NewShardRouter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := mathx.NewRNG(seed)
	for i := 0; i < n; i++ {
		at := span * float64(i) / float64(n)
		loc := ftoa.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		if rng.Intn(2) == 0 {
			_, _, err = router.AddWorker(ftoa.Worker{ID: i, Loc: loc, Arrive: at, Patience: 4})
		} else {
			_, _, err = router.AddTask(ftoa.Task{ID: i, Loc: loc, Release: at, Expiry: 2})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return router
}

// BenchmarkWALRecoverDurableShape is the durable-fanout boot in process:
// recovering 100k arrivals that all sit inside one retire interval, so
// the recovered arenas hold every one of them. B/op is what a restart
// allocates to rebuild that state (CI holds it under 50 MB; reading the
// whole log into memory and replaying into append-grown arenas cost
// 105.6 MB) and ns/arrival is the replay price. Every iteration recovers
// a private copy of the log, so the generation Recover opens never joins
// the next iteration's chain.
func BenchmarkWALRecoverDurableShape(b *testing.B) {
	seedDir := filepath.Join(b.TempDir(), "seed")
	fillDurableShape(b, durableShapeConfig(seedDir), durableShapeArrivals, 0.6, 1)
	benchRecoverDurableShape(b, seedDir, false)
}

// BenchmarkWALRecoverAfterCheckpoint is the same boot after a clean
// shutdown: the same 100k arrivals, then the checkpoint ftoa-serve takes
// before it closes the log. What is left to recover is the live set — the
// few hundred objects still unmatched and unexpired — so B/op and the time
// no longer follow the history (CI holds B/op under 2 MB; the crash
// restart above allocates ~20 MB). ns/arrival stays per arrival of the
// history, for comparison with the bench above.
func BenchmarkWALRecoverAfterCheckpoint(b *testing.B) {
	seedDir := filepath.Join(b.TempDir(), "seed")
	router := admitDurableShape(b, durableShapeConfig(seedDir), durableShapeArrivals, 0.6, 1)
	info, err := router.Checkpoint()
	if err != nil || !info.Sealed {
		b.Fatalf("checkpoint: %+v, %v", info, err)
	}
	if err := router.WALClose(); err != nil {
		b.Fatal(err)
	}
	benchRecoverDurableShape(b, seedDir, true)
	b.ReportMetric(float64(info.MigratedWorkers+info.MigratedTasks), "live")
}

const durableShapeArrivals = 100000

// benchRecoverDurableShape times RecoverShardRouter over private copies of
// seedDir.
func benchRecoverDurableShape(b *testing.B, seedDir string, fromCheckpoint bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), strconv.Itoa(i))
		if err := os.CopyFS(dir, os.DirFS(seedDir)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rec, info, err := ftoa.RecoverShardRouter(durableShapeConfig(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !info.Recovered || info.FromCheckpoint != fromCheckpoint || (!fromCheckpoint && info.Events == 0) {
			b.Fatalf("recovered the wrong thing: %+v", info)
		}
		if got := rec.Totals(); got.Workers+got.Tasks-got.GhostWorkers-got.GhostTasks != durableShapeArrivals {
			b.Fatalf("recovered totals %+v, want %d admissions owned", got, durableShapeArrivals)
		}
		if err := rec.WALClose(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/durableShapeArrivals, "ns/arrival")
}

// BenchmarkCheckpoint measures the stall a checkpoint imposes — admissions
// wait for all of it — on a 4x4 halo router with a buffered WAL holding
// 1k, 10k and 40k live objects: ms/op is the whole of Checkpoint (quiesce,
// re-admit every live object and its ghost copies into fresh sessions,
// write and fsync the new generation and its seal, delete the old one),
// objects/op what it re-admitted. Nothing matches and nothing expires, so
// every iteration checkpoints the same population. This is the number a
// run-time trigger has to be scheduled around; ftoa-serve only checkpoints
// at shutdown.
func BenchmarkCheckpoint(b *testing.B) {
	for _, live := range []int{1000, 10000, 40000} {
		b.Run(strconv.Itoa(live), func(b *testing.B) {
			router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
				Matcher: ftoa.MatcherConfig{
					Mode:     ftoa.Strict,
					Velocity: 2,
					Bounds:   ftoa.NewRect(0, 0, 100, 100),
					Hints:    ftoa.Hints{ExpectedWorkers: live / 2, ExpectedTasks: live / 2},
				},
				Cols:         4,
				Rows:         4,
				Halo:         ftoa.HaloForWindow(2, 2),
				NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
				Retention:    1 << 16,
				WAL:          &ftoa.WALOptions{Dir: filepath.Join(b.TempDir(), "wal")},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer router.WALClose()
			// Patient workers and tasks nobody can reach in time: all at t=0,
			// so the clock never passes a deadline.
			rng := mathx.NewRNG(uint64(live))
			for i := 0; i < live; i++ {
				loc := ftoa.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				if i%2 == 0 {
					_, _, err = router.AddWorker(ftoa.Worker{ID: i, Loc: loc, Patience: 1e9})
				} else {
					_, _, err = router.AddTask(ftoa.Task{ID: i, Loc: loc, Expiry: 1e-9})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			objects := 0
			for i := 0; i < b.N; i++ {
				info, err := router.Checkpoint()
				if err != nil || !info.Sealed || info.RemoveErr != nil {
					b.Fatalf("checkpoint: %+v, %v", info, err)
				}
				objects += info.MigratedWorkers + info.MigratedTasks
			}
			b.StopTimer()
			if objects != b.N*live {
				b.Fatalf("re-admitted %d objects over %d checkpoints of %d", objects, b.N, live)
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(objects)/float64(b.N), "objects/op")
		})
	}
}

// benchEventFanout prices event delivery: one day of admissions drives
// a 4x4 router while nsubs subscriptions (ShardRouter.Subscribe) consume
// the event log concurrently, and the clock only stops once every
// subscriber has drained every emitted event — so ns/event is the full
// per-event cost of emission PLUS delivery to all subscribers, not just
// the admission path. Because the log is fed once at emission and
// subscriber reads are page copies, fan-out is O(events), not O(events x
// subscribers x shards): CI gates the 16-subscriber ns/event at 2x the
// 1-subscriber figure. The other half of the criterion — idle
// subscribers add zero steady-state per-tick work — is pinned by
// TestRouterBroadcastWaitWake (a quiescent router publishes nothing and
// wakes no one).
func benchEventFanout(b *testing.B, nsubs int) {
	in, _ := benchSetup(b)
	events := in.Events()
	var emitted uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
			Matcher: ftoa.MatcherConfig{
				Mode:     ftoa.AssumeGuide,
				Velocity: in.Velocity,
				Bounds:   in.Bounds,
				Hints: ftoa.Hints{
					ExpectedWorkers: len(in.Workers),
					ExpectedTasks:   len(in.Tasks),
					Horizon:         in.Horizon,
				},
			},
			Cols:         4,
			Rows:         4,
			NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
		})
		if err != nil {
			b.Fatal(err)
		}
		prodDone := make(chan struct{})
		var consumers sync.WaitGroup
		for s := 0; s < nsubs; s++ {
			sub := router.Subscribe(0)
			consumers.Add(1)
			go func() {
				defer consumers.Done()
				defer sub.Close()
				var buf []ftoa.ShardEvent
				for {
					buf, _, _ = sub.Next(1024, buf[:0])
					if len(buf) > 0 {
						continue
					}
					select {
					case <-prodDone:
						if sub.Cursor() >= router.Cursor() {
							return
						}
					default:
					}
					sub.Wait(time.Millisecond, nil)
				}
			}()
		}
		b.StartTimer()
		for _, ev := range events {
			switch ev.Kind {
			case ftoa.WorkerArrival:
				_, _, err = router.AddWorker(in.Workers[ev.Index])
			case ftoa.TaskArrival:
				_, _, err = router.AddTask(in.Tasks[ev.Index])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		router.Finish()
		close(prodDone)
		consumers.Wait()
		b.StopTimer()
		emitted += router.Cursor()
		b.StartTimer()
	}
	b.StopTimer()
	if emitted == 0 {
		b.Fatal("no events emitted")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/event")
	b.ReportMetric(float64(emitted)/float64(b.N), "events")
}

func BenchmarkEventFanout1Subscribers(b *testing.B)  { benchEventFanout(b, 1) }
func BenchmarkEventFanout16Subscribers(b *testing.B) { benchEventFanout(b, 16) }
