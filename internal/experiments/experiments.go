// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6): the synthetic sweeps of Figures 4 and 6, the
// slot-count, scalability and real-data experiments of Figure 5, the
// prediction comparison of Table 5, and an empirical competitive-ratio
// ablation for Theorems 1–2. Each experiment prints the same series the
// paper plots: matching size, running time and memory per algorithm
// (SimpleGreedy, GR, POLAR, POLAR-OP, OPT) against the swept parameter.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftoa/internal/core"
	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
	"ftoa/internal/workload"
)

// Algorithm labels, in the paper's plotting order.
const (
	AlgoSimpleGreedy = "SimpleGreedy"
	AlgoGR           = "GR"
	AlgoPOLAR        = "POLAR"
	AlgoPOLAROP      = "POLAR-OP"
	AlgoOPT          = "OPT"
)

// DefaultAlgorithms is the paper's comparison set.
var DefaultAlgorithms = []string{AlgoSimpleGreedy, AlgoGR, AlgoPOLAR, AlgoPOLAROP, AlgoOPT}

// Metric holds the three per-algorithm measurements every panel reports.
type Metric struct {
	MatchingSize int
	Seconds      float64
	MemoryMB     float64
}

// Row is one x-axis point.
type Row struct {
	X      string
	ByAlgo map[string]Metric
}

// Result is one experiment's full output.
type Result struct {
	ID         string
	Title      string
	XLabel     string
	Algorithms []string
	Rows       []Row
	// Notes carries experiment-specific remarks (e.g. "OPT omitted").
	Notes []string
	// Custom, when non-empty, replaces the metric tables with free-form
	// output (used by Table 5 and the ratio ablation, whose shapes differ
	// from the per-algorithm panels).
	Custom string
	// noMemory marks a parallel run, whose Memory cells are unmeasured
	// (Options.measure) and print as "-" rather than as a measured zero.
	noMemory bool
}

// Print renders the three metric tables the paper's panels plot, or the
// Custom block for table-shaped experiments.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if r.Custom != "" {
		fmt.Fprint(w, r.Custom)
		fmt.Fprintln(w)
		return
	}
	sections := []struct {
		name string
		get  func(Metric) string
	}{
		{"Matching size", func(m Metric) string { return fmt.Sprintf("%d", m.MatchingSize) }},
		{"Time (s)", func(m Metric) string { return fmt.Sprintf("%.3f", m.Seconds) }},
		{"Memory (MB)", func(m Metric) string {
			if r.noMemory {
				return "-"
			}
			return fmt.Sprintf("%.1f", m.MemoryMB)
		}},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "-- %s --\n", sec.name)
		fmt.Fprintf(w, "%-12s", r.XLabel)
		for _, a := range r.Algorithms {
			fmt.Fprintf(w, "%14s", a)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-12s", row.X)
			for _, a := range r.Algorithms {
				if m, ok := row.ByAlgo[a]; ok {
					fmt.Fprintf(w, "%14s", sec.get(m))
				} else {
					fmt.Fprintf(w, "%14s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// Options tunes experiment execution.
type Options struct {
	// Scale multiplies the paper's population sizes, letting tests and
	// benchmarks run the same sweeps at reduced cost. 1.0 = paper scale.
	Scale float64
	// Strict switches match validation to the honest platform semantics
	// (worker movement simulated, deadline rechecked at commit time). The
	// default, false, reproduces the paper's counting, which assumes every
	// guide-matched pair is feasible in reality (the stated assumption
	// before Lemma 1; see sim.AssumeGuide).
	Strict bool
	// SkipOPT drops the OPT series everywhere (it dominates runtime).
	SkipOPT bool
	// Seed offsets workload seeds, for variance studies.
	Seed uint64
	// Parallelism bounds the worker pool that runs sweep rows — and the
	// independent algorithm replays within each row — concurrently.
	// 0 or 1 keeps the fully sequential path, which is also the only mode
	// with meaningful per-algorithm memory measurements (the allocation
	// counter is process-wide). Negative means GOMAXPROCS. Results are
	// deterministic and bit-identical to the sequential path on matching
	// sizes: every row derives its own seed and every replay runs on a
	// private engine clone.
	Parallelism int

	// pool is the shared bounded worker pool, created by withDefaults.
	pool *pool
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.pool == nil {
		o.pool = newPool(o.parallelism())
	}
	return o
}

// parallelism resolves the Parallelism knob to a worker count.
func (o Options) parallelism() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	default:
		return o.Parallelism
	}
}

// parallel reports whether the experiment runs on the concurrent path.
func (o Options) parallel() bool { return o.parallelism() > 1 }

// pool is a bounded worker pool: at most cap(sem) submitted functions
// compute at once. A sequential pool (nil sem) runs callers inline. Slots
// are held only while a leaf unit of work computes — coordinating
// goroutines never hold one while waiting on children — so nested fan-out
// (rows spawning per-algorithm replays) cannot deadlock.
type pool struct {
	sem chan struct{}
}

func newPool(par int) *pool {
	if par <= 1 {
		return &pool{}
	}
	return &pool{sem: make(chan struct{}, par)}
}

// do runs fn, blocking while the pool is saturated.
func (p *pool) do(fn func()) {
	if p.sem == nil {
		fn()
		return
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	fn()
}

// forEach runs fn(i) for every i in [0, n), fanning out across at most
// parallelism() concurrent workers when the options ask for parallelism
// and inline otherwise. Bounding the in-flight calls (rather than just
// the pool's compute slots) keeps peak memory at O(parallelism) rows —
// a finished row's instance, guide and engine clones are released before
// the worker claims the next index. It returns the first non-nil error
// by index, so error identity is deterministic.
func forEach(opts Options, n int, fn func(i int) error) error {
	if !opts.parallel() || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := opts.parallelism()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scaled multiplies a paper population by the scale factor, keeping at
// least a handful of objects.
func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 8 {
		v = 8
	}
	return v
}

// scaledSide scales a spatial discretisation dimension (grid side or
// rows/cols) by the square root of Scale. Populations scale by s while the
// spatial cell count scales by (√s)² = s, so per-cell object density —
// which drives prediction quality and hence guide usefulness — stays at
// paper level in scaled-down runs. The temporal discretisation is NOT
// scaled: slot width must stay small relative to the deadlines Dr and Dw,
// otherwise the guide's representative times become meaningless.
func (o Options) scaledSide(n int) int {
	v := int(float64(n)*math.Sqrt(o.Scale) + 0.5)
	if v < 4 {
		v = 4
	}
	return v
}

// Fixed parameters of every experiment.
const (
	// optCandidates caps OPT's per-task candidate workers.
	optCandidates = 64
	// grWindow is GR's batching window in slot units; 0.25 gives GR its
	// paper-reported "marginally outperforms SimpleGreedy" position without
	// starving task deadlines.
	grWindow = 0.25
)

// measure runs one unit of work — a replay or an offline solve — and
// reports its matching size, wall time and, on the sequential path only,
// the heap it allocated (TotalAlloc delta, the closest portable analogue of
// the paper's memory metric). The counter is process-wide, so concurrent
// units cannot attribute it and MemoryMB stays 0 on the parallel path.
func (o Options) measure(work func() model.Matching) Metric {
	var ms runtime.MemStats
	var before uint64
	sequential := !o.parallel()
	if sequential {
		runtime.ReadMemStats(&ms)
		before = ms.TotalAlloc
	}
	start := time.Now()
	m := work()
	met := Metric{MatchingSize: m.Size(), Seconds: time.Since(start).Seconds()}
	if sequential {
		runtime.ReadMemStats(&ms)
		met.MemoryMB = float64(ms.TotalAlloc-before) / (1 << 20)
	}
	return met
}

// fan runs fn(0) … fn(n-1): inline and in order on the sequential path, one
// goroutine each, gated by the shared worker pool, on the parallel path.
func (o Options) fan(n int, fn func(i int)) {
	if !o.parallel() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.pool.do(func() { fn(i) })
		}()
	}
	wg.Wait()
}

// runCell is the only place an instance is measured: every algorithm in
// algs replays it under mode, core.OPT solves it offline when withOPT, and
// the metrics come back keyed by algorithm name (AlgoOPT for the optimum).
// Sequentially the replays share one engine; in parallel the first takes
// the base engine and each later one clones it inside its pool slot, so
// per-run state is only allocated once a replay is actually admitted.
func runCell(in *model.Instance, mode sim.Mode, algs []sim.Algorithm, withOPT bool, opts Options) map[string]Metric {
	names := make([]string, len(algs), len(algs)+1)
	for i, alg := range algs {
		names[i] = alg.Name()
	}
	if withOPT {
		names = append(names, AlgoOPT)
	}
	metrics := make([]Metric, len(names))
	base := sim.NewEngine(in, mode)
	opts.fan(len(names), func(i int) {
		if i == len(algs) {
			metrics[i] = opts.measure(func() model.Matching {
				return core.OPT(in, core.OPTOptions{MaxCandidates: optCandidates})
			})
			return
		}
		eng := base
		if i > 0 && opts.parallel() {
			eng = base.Clone()
		}
		metrics[i] = opts.measure(func() model.Matching { return eng.Run(algs[i]).Matching })
	})
	out := make(map[string]Metric, len(names))
	for i, name := range names {
		out[name] = metrics[i]
	}
	return out
}

// runAll measures the paper's comparison set on one instance: the four
// online algorithms (the POLAR variants following g) under the options'
// validation mode, plus OPT unless opts.SkipOPT.
func runAll(in *model.Instance, g *guide.Guide, opts Options) map[string]Metric {
	mode := sim.AssumeGuide
	if opts.Strict {
		mode = sim.Strict
	}
	return runCell(in, mode, []sim.Algorithm{
		core.NewSimpleGreedy(), core.NewGR(grWindow), core.NewPOLAR(g), core.NewPOLAROP(g),
	}, !opts.SkipOPT, opts)
}

// point is one synthetic x-axis point: the generating distribution and the
// discretisation its guide is built on.
type point struct {
	cfg             workload.Synthetic
	gridSide, slots int
}

// defaultPoint is Table 4's default configuration at the options' scale
// and seed offset.
func (o Options) defaultPoint() point {
	cfg := workload.DefaultSynthetic()
	cfg.Seed += o.Seed
	cfg.NumWorkers = o.scaled(cfg.NumWorkers)
	cfg.NumTasks = o.scaled(cfg.NumTasks)
	return point{cfg: cfg, gridSide: o.scaledSide(defaultGridSide), slots: defaultSlots}
}

// guide derives the guide from the generating distribution's expected
// counts — the i.i.d.-model setup of the synthetic experiments. minCost
// selects the min-cost max-flow variant the guide ablation studies.
func (p point) guide(minCost bool) (*guide.Guide, error) {
	grid := geo.NewGrid(p.cfg.Bounds(), p.gridSide, p.gridSide)
	sl := timeslot.New(p.cfg.Horizon, p.slots)
	wc, tc := p.cfg.ExpectedCounts(grid, sl)
	cfg := guide.NewConfig(grid, sl, p.cfg.Velocity, p.cfg.WorkerPatience, p.cfg.TaskExpiry)
	cfg.MinCost = minCost
	return guide.Build(cfg, wc, tc)
}

// build generates the point's instance and its max-flow guide. Both run
// inside one pool slot so concurrent rows respect the parallelism bound.
func (p point) build(opts Options) (in *model.Instance, g *guide.Guide, err error) {
	opts.pool.do(func() {
		if in, err = p.cfg.Generate(); err == nil {
			g, err = p.guide(false)
		}
	})
	return in, g, err
}

// newResult starts a panel-shaped result with one empty row per x-axis
// point, for fill to complete.
func (o Options) newResult(id, title, xlabel string, algs []string, rows int) *Result {
	return &Result{
		ID: id, Title: title, XLabel: xlabel, Algorithms: algs,
		Rows:     make([]Row, rows),
		noMemory: o.parallel(),
	}
}

// fill computes every row — concurrently under Options.Parallelism, rows
// being independent — and returns the completed result; rows land in
// x-axis order either way.
func (r *Result) fill(opts Options, row func(i int) (Row, error)) (*Result, error) {
	err := forEach(opts, len(r.Rows), func(i int) (err error) {
		r.Rows[i], err = row(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// algorithms returns the algorithm list for a result, honouring SkipOPT.
func (o Options) algorithms() []string {
	if o.SkipOPT {
		return DefaultAlgorithms[:4]
	}
	return DefaultAlgorithms
}

// Registry maps experiment ids to runners, for the CLI.
type Runner func(Options) (*Result, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// IDs lists registered experiment ids in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	return out
}

// Timing is one machine-readable per-experiment wall-clock sample. The
// bench CLI emits these as JSON so successive PRs have a perf trajectory
// to gate against.
type Timing struct {
	ID          string  `json:"id"`
	Seconds     float64 `json:"seconds"`
	Parallelism int     `json:"parallelism"`
	Scale       float64 `json:"scale"`
}

// Run executes the given experiments in registration order, printing each
// to w, and returns a wall-clock timing per experiment.
func Run(ids []string, opts Options, w io.Writer) ([]Timing, error) {
	opts = opts.withDefaults()
	timings := make([]Timing, 0, len(ids))
	for _, id := range ids {
		runner, ok := registry[id]
		if !ok {
			return timings, fmt.Errorf("experiment %s: unknown id", id)
		}
		start := time.Now()
		res, err := runner(opts)
		if err != nil {
			return timings, fmt.Errorf("experiment %s: %w", id, err)
		}
		timings = append(timings, Timing{
			ID:          id,
			Seconds:     time.Since(start).Seconds(),
			Parallelism: opts.parallelism(),
			Scale:       opts.Scale,
		})
		res.Print(w)
	}
	return timings, nil
}

// fmtInt renders an integer x-axis value compactly (20000 → "20000").
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }

// fmtF renders a float x-axis value trimming trailing zeros.
func fmtF(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
