package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Config is what every run of one invocation shares.
type Config struct {
	Seconds  float64 // measured seconds per run (paced half + saturation half)
	ServeBin string
	OutDir   string
	Log      io.Writer
}

// Metric is one named, united measurement.
type Metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the result of one run in reporting form.
type Outcome struct {
	Workload   string
	Seed       int64
	Traced     bool
	Correct    bool
	Attempted  uint64
	Failed     uint64
	Metrics    []Metric // what the JSON report carries: end-to-end, or per-layer when traced
	Speed      []Metric // end-to-end run only: the unbounded speed figures it also measured
	Notes      []string // sample counts and other context for the human report
	Violations []string
}

// Report is the JSON object the acceptance harness reads.
func (o *Outcome) Report() map[string]any {
	metrics := make(map[string]Metric, len(o.Metrics))
	for _, m := range o.Metrics {
		metrics[m.Name] = m
	}
	return map[string]any{"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics}
}

// Print writes every metric by name with its unit, then the verdict.
func (o *Outcome) Print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced=%v\n", o.Workload, o.Seed, o.Traced)
	for _, m := range o.Metrics {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range o.Speed {
		fmt.Fprintf(w, "  %-30s %14.4f %s  (unbounded; in the --trace 1 report)\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", o.Attempted, o.Failed, o.Correct)
	for _, v := range o.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// Run executes one workload once: the end-to-end run against the real
// binary, or (traced) the in-process per-layer run.
func Run(cfg Config, w Workload, seed int64, traced bool) (*Outcome, error) {
	if cfg.Seconds < 2 {
		return nil, fmt.Errorf("--seconds %v: need at least 2", cfg.Seconds)
	}
	work := filepath.Join(cfg.OutDir, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	if traced {
		return runTraced(cfg, w, seed, work)
	}
	r, err := RunE2E(E2EOptions{
		Workload: w, Seed: seed, PacedSecs: cfg.Seconds / 2, SatSecs: cfg.Seconds / 2,
		ServeBin: cfg.ServeBin, WorkDir: work, Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	o := &Outcome{Workload: w.Name, Seed: seed, Attempted: r.Attempted, Failed: r.Failed, Violations: r.Violations}
	o.Metrics, o.Speed = e2eMetrics(r), speedMetrics(r)
	o.Notes = []string{
		fmt.Sprintf("paced phase: %d round trips (a p95 needs >= %d)", r.RTTSamples, int(minTail/0.05)),
		fmt.Sprintf("event lag p50 %.3f ms, p95 %.3f ms over %d matches (per-layer metrics: unsteady on the seed, see README)", r.LagP50Ms, r.LagP95Ms, r.LagSamples),
		fmt.Sprintf("setup boots %v; measured boot healthy after %.3fs; warm-up %.2fs", r.Setups, r.BootS, r.WarmupS),
		fmt.Sprintf("driver late p95 %.3f ms; clock probe rtt %.3f ms; fail ratio %g", r.LateP95Ms, r.ProbeRTTMs, r.FailRatio()),
		fmt.Sprintf("saturation segment rates %.0f", r.SatSegments),
	}
	if !TailQualifies(r.RTTSamples, 0.95) {
		o.Violations = append(o.Violations, fmt.Sprintf("too few samples for a p95: %d round trips", r.RTTSamples))
	}
	for _, m := range append(o.Metrics, o.Speed...) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			o.Violations = append(o.Violations, fmt.Sprintf("metric %s = %v is not a positive number", m.Name, m.Value))
		}
	}
	o.Correct = len(o.Violations) == 0 && o.Failed == 0
	return o, nil
}

// e2eMetrics names every end-to-end metric; BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatchesCode).
func e2eMetrics(r *E2EResult) []Metric {
	return []Metric{
		{"setup_s", r.SetupS, "s"},
		{"rss_peak_mb", r.RSSPeakMB, "MB"},
		{"match_ratio", r.MatchRatio, "ratio"},
	}
}

// speedMetrics are the throughput, latency and CPU figures of a run
// against the real binary. They are per-layer (unbounded) metrics, not
// end-to-end ones: on the seed each is the speed of one memory-bound
// loop, which the reference host varies by more than any bound allowed
// (README, "Noise, and the bounds").
func speedMetrics(r *E2EResult) []Metric {
	return []Metric{
		{"driver.admit_rps", r.AdmitRPS, "1/s"},
		{"driver.rtt_p50_ms", r.RTTp50Ms, "ms"},
		{"driver.rtt_p95_ms", r.RTTp95Ms, "ms"},
		{"serve.cpu_us_per_req", r.CPUUsPerReq, "us"},
	}
}

// ledgerCell summarises one (workload, metric) over the repeated runs.
type ledgerCell struct {
	Unit        string    `json:"unit"`
	Values      []float64 `json:"values"`
	Median      float64   `json:"median"`
	Q1          float64   `json:"q1"`
	Q3          float64   `json:"q3"`
	IQRShare    float64   `json:"iqr_share"`   // (q3-q1)/median: the acceptance harness's spread
	RangeShare  float64   `json:"range_share"` // (max-min)/median
	MedianA     float64   `json:"median_set_a"`
	MedianB     float64   `json:"median_set_b"`
	ABDiffShare float64   `json:"ab_diff_share"` // |medianA-medianB|/median: two alternating sets of the same code
}

// Bounds: each regression bound in BENCHMARK.json is max(2 x the widest
// quartile spread any workload showed in the ledger, the metric's floor),
// rounded up to a whole percent and capped at the 0.25 the acceptance
// contract allows. The floors are ISSUE 13's; match_ratio's is 0.02
// absolute, taken as a share of the smallest workload median.
const maxBound = 0.25

var boundFloors = map[string]float64{"setup_s": 0.08, "rss_peak_mb": 0.12}

// DeriveBound applies the rule above to one metric's ledger cells, one
// per workload.
func DeriveBound(name string, cells []ledgerCell) float64 {
	spread, floor := 0.0, boundFloors[name]
	for _, c := range cells {
		spread = max(spread, c.IQRShare)
		if name == "match_ratio" {
			floor = max(floor, 0.02/c.Median)
		}
	}
	return min(maxBound, math.Ceil(max(2*spread, floor)*100-1e-9)/100)
}

// RunLedger runs the whole suite `repeat` times (seed r on repetition r),
// alternating repetitions between set A and set B, and writes the
// per-(workload, metric) noise summary the bounds in BENCHMARK.json are
// derived from.
func RunLedger(cfg Config, workloads []Workload, repeat int, path string) error {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	incorrect := 0
	for r := 1; r <= repeat; r++ {
		for _, w := range workloads {
			o, err := Run(cfg, w, int64(r), false)
			if err != nil {
				return fmt.Errorf("repetition %d, %s: %w", r, w.Name, err)
			}
			o.Print(cfg.Log)
			if !o.Correct {
				incorrect++
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for _, m := range append(o.Metrics, o.Speed...) {
				values[w.Name][m.Name] = append(values[w.Name][m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
	}
	cells := map[string]map[string]ledgerCell{}
	for wname, byMetric := range values {
		cells[wname] = map[string]ledgerCell{}
		for name, vs := range byMetric {
			var a, b []float64
			for i, v := range vs {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			q1, q2, q3 := Quartiles(vs)
			lo, hi := vs[0], vs[0]
			for _, v := range vs {
				lo, hi = min(lo, v), max(hi, v)
			}
			c := ledgerCell{Unit: units[name], Values: vs, Median: q2, Q1: q1, Q3: q3,
				IQRShare: (q3 - q1) / q2, RangeShare: (hi - lo) / q2, MedianA: Median(a)}
			if len(b) > 0 {
				c.MedianB = Median(b)
				c.ABDiffShare = math.Abs(c.MedianA-c.MedianB) / q2
			}
			cells[wname][name] = c
		}
	}
	bounds := map[string]float64{}
	for _, m := range e2eMetrics(&E2EResult{}) {
		name := m.Name
		var across []ledgerCell
		for _, byMetric := range cells {
			across = append(across, byMetric[name])
		}
		bounds[name] = DeriveBound(name, across)
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	doc := map[string]any{
		"commit":            commit,
		"date":              time.Now().UTC().Format(time.RFC3339),
		"nproc":             runtime.NumCPU(),
		"go":                runtime.Version(),
		"gomaxprocs_driver": 1,
		"gomaxprocs_server": 1,
		"paced_seconds":     cfg.Seconds / 2,
		"saturation_secs":   cfg.Seconds / 2,
		"repetitions":       repeat,
		"incorrect_runs":    incorrect,
		"claim":             nil,
		"bounds":            bounds,
		"workloads":         cells,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed the correctness gate", incorrect)
	}
	return nil
}
