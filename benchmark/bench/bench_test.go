package bench

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {0.5, 50}, {0.95, 95}, {1, 100}} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 0.5); !near(got, 1.5) {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN")
	}
	// The rule behind "p95, not p99": ten samples must lie beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{468, 0.95, true}, {468, 0.99, false}, {199, 0.95, false}, {200, 0.95, true}, {1000, 0.99, true}} {
		if got := TailQualifies(c.n, c.p); got != c.want {
			t.Errorf("TailQualifies(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSegmentRatesAndMedian(t *testing.T) {
	// 3 segments of 2 s: 10, 30 and 20 admissions; one completion past the end.
	at := []float64{0.1, 1.9, 2.0, 3.5, 3.9, 4.2, 6.0}
	weight := []float64{4, 6, 10, 10, 10, 20, 99}
	rates := SegmentRates(at, weight, 2, 3)
	want := []float64{5, 15, 10}
	for i := range want {
		if !near(rates[i], want[i]) {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	if got := Median(rates); !near(got, 10) {
		t.Errorf("segment median = %v, want 10", got)
	}
	if got := rates; !near(got[0], 5) || len(got) != 3 {
		t.Errorf("Median must not reorder its input: %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := Quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("Quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = Quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("Quartiles(3) = %v %v %v", q1, q2, q3)
	}
}

// fakeClock is virtual time: sleeping jumps it forward.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueUnderSlowSink(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const interval = 10 * time.Millisecond
	var dues []time.Duration
	late := OpenLoop(clk, start, interval, 6, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 1 {
			clk.now = clk.now.Add(35 * time.Millisecond) // the sink stalls 3.5 intervals
		}
	})
	for i, d := range dues {
		if d != time.Duration(i)*interval {
			t.Fatalf("send %d due at %v: the schedule must not shift after a stall", i, d)
		}
	}
	// Sends 2..4 were due during the stall and leave late, back to back;
	// send 5 is on time again.
	want := []float64{0, 0, 0.025, 0.015, 0.005, 0}
	for i := range want {
		if !near(late[i], want[i]) {
			t.Fatalf("lateness = %v, want %v", late, want)
		}
	}
}

func TestClockOffsetUsesTightestProbe(t *testing.T) {
	// Server clock runs 100 s ahead. The slow probe's midpoint is skewed
	// by its asymmetric delay; the tight one is not.
	probes := []Probe{
		{Send: 1.000, Recv: 1.050, Server: 101.040},
		{Send: 2.000, Recv: 2.002, Server: 102.001},
		{Send: 3.000, Recv: 3.020, Server: 103.002},
	}
	off, rtt := ClockOffset(probes)
	if !near(off, 100) || !near(rtt, 0.002) {
		t.Errorf("ClockOffset = %v, %v; want 100, 0.002", off, rtt)
	}
	if off, rtt := ClockOffset(nil); off != 0 || rtt != 0 {
		t.Errorf("no probes: %v %v", off, rtt)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 25, End: 60, Parent: 0},  // overlaps a by 5: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "other", Start: 200, End: 210, Parent: -1},
	}
	self := SelfTimes(spans)
	want := []int64{100 - 20 - 30 - 10, 20 - 8, 8, 35, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self = %v, want %v", self, want)
		}
	}
	agg := Aggregate(spans)
	if b := agg["batch"]; b.Count != 1 || b.Total != 100 || b.Self != 40 {
		t.Errorf("batch totals = %+v", b)
	}
	var r *Recorder // the untraced run's recorder
	r.End(r.Begin("x", -1, 0))
	if r.Spans() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestIdentityChecks(t *testing.T) {
	rs := []receipt{
		{false, 0, 7, 1, 1.0}, {true, 0, 7, 1, 1.0}, // worker and task handle spaces are separate
		{false, 0, 8, 1, 2.0},
		{false, 0, 3, 2, 6.0}, // epoch changed between t=2 and t=6: a retirement
		{false, 0, 7, 2, 6.5},
	}
	if n := duplicateReceipts(rs); n != 0 {
		t.Errorf("clean receipts flagged: %d", n)
	}
	if n := duplicateReceipts(append(rs, receipt{false, 0, 8, 1, 2.5})); n != 1 {
		t.Errorf("repeated receipt not flagged: %d", n)
	}
	br := epochBrackets(rs)
	if len(br[0]) != 1 || br[0][0] != (bracket{2.0, 6.0}) {
		t.Fatalf("brackets = %v", br)
	}
	m := func(at float64, worker int32) matchRec { return matchRec{at: at, worker: worker, task: worker + 100} }
	// Same handle matched at 0.2 and 0.3: no retirement near — a double commit.
	if n := duplicateMatches(rs, []matchRec{m(0.2, 7), m(0.3, 7)}, false); n != 2 {
		t.Errorf("double commit: flagged %d endpoints, want 2 (worker and task)", n)
	}
	// Matched at 1.9 and 6.2: the retirement lies between — handle reuse.
	if n := duplicateMatches(rs, []matchRec{m(1.9, 7), m(6.2, 7)}, false); n != 0 {
		t.Errorf("handle reuse across a retirement flagged: %d", n)
	}
	// Both after the retirement (8.7 and 9.0): a double commit without a
	// halo; with one, the first object may be named by its pre-retirement
	// admission handle, up to a lifetime older — 4 s excuses the worker,
	// 2 s does not reach back far enough for the task.
	if n := duplicateMatches(rs, []matchRec{m(8.7, 7), m(9.0, 7)}, false); n != 2 {
		t.Errorf("post-retirement double commit: flagged %d", n)
	}
	if n := duplicateMatches(rs, []matchRec{m(8.7, 7), m(9.0, 7)}, true); n != 1 {
		t.Errorf("halo excuse window: flagged %d, want only the task", n)
	}
}

func TestWorkloadInputsAreSeedDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a := w.Arrivals(rand.New(rand.NewSource(7)), 2000)
		b := w.Arrivals(rand.New(rand.NewSource(7)), 2000)
		c := w.Arrivals(rand.New(rand.NewSource(8)), 2000)
		same, hot := true, 0
		for i := range a {
			if a[i].X != b[i].X || a[i].Y != b[i].Y || a[i].Kind != b[i].Kind {
				t.Fatalf("%s: seed 7 generated two different inputs", w.Name)
			}
			same = same && a[i].X == c[i].X
			if math.Abs(a[i].X-50) <= 5 && math.Abs(a[i].Y-50) <= 5 {
				hot++
			}
			if !math.IsNaN(a[i].At) || a[i].Window <= 0 {
				t.Fatalf("%s: request %d not server-stamped with a positive window: %+v", w.Name, i, a[i])
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
		if w.Hotspot != (hot > 1200) {
			t.Errorf("%s: %d of 2000 arrivals in the hot square (hotspot=%v)", w.Name, hot, w.Hotspot)
		}
		if _, err := FindWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if _, err := FindWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSONMatchesCode pins the contract file at the repository
// root to the code: the workloads, and the name and unit of every metric
// either mode prints, are exactly what BENCHMARK.json declares.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, code has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		// The traced run's companion has the shortest paced phase, a quarter
		// of the run; it must still leave ten round trips beyond its p95.
		if n := int(float64(doc.RunSeconds) / 4 * PacedRate / float64(Batch)); !TailQualifies(n, 0.95) {
			t.Errorf("%s: %d paced batches in %d s cannot carry a p95", w.Name, n, doc.RunSeconds/4)
		}
	}
	check := func(kind string, declared []metric, printed []Metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			d := declared[i]
			if d.Name != m.Name || d.Unit != m.Unit || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %d: declared %+v, code prints %s [%s]", kind, i, d, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics(&E2EResult{}))
	check("per_layer", doc.PerLayer, layerMetrics(layerInputs{ladder: &Ladder{}, comp: &E2EResult{Stats: &ServerStats{}}}))

	// Every bound is the one DeriveBound computes from the committed ledger.
	raw, err = os.ReadFile("../ledger/BENCH_13.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Workloads map[string]map[string]ledgerCell
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		var cells []ledgerCell
		for _, w := range Workloads {
			c, ok := ledger.Workloads[w.Name][m.Name]
			if !ok {
				t.Fatalf("ledger has no %s for %s", m.Name, w.Name)
			}
			cells = append(cells, c)
		}
		if want := DeriveBound(m.Name, cells); !near(m.Bound, want) || m.Bound <= 0 {
			t.Errorf("%s: bound %v, the ledger gives %v", m.Name, m.Bound, want)
		}
	}
}

func TestDeriveBound(t *testing.T) {
	cells := func(spreads ...float64) (cs []ledgerCell) {
		for _, s := range spreads {
			cs = append(cs, ledgerCell{IQRShare: s, Median: 0.8})
		}
		return cs
	}
	for _, c := range []struct {
		name    string
		spreads []float64
		want    float64
	}{
		{"setup_s", []float64{0.01, 0.02}, 0.08},      // floor
		{"rss_peak_mb", []float64{0.03, 0.071}, 0.15}, // 2 x the widest, rounded up
		{"setup_s", []float64{0.2, 0.1}, 0.25},        // capped at the contract maximum
		{"match_ratio", []float64{0.005, 0.01}, 0.03}, // 0.02 absolute over a 0.8 median = 0.025
		{"match_ratio", []float64{0.03, 0.01}, 0.06},
	} {
		if got := DeriveBound(c.name, cells(c.spreads...)); !near(got, c.want) {
			t.Errorf("DeriveBound(%s, %v) = %v, want %v", c.name, c.spreads, got, c.want)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	if ns, err := parseSchedstat([]byte("6514331921 91243 1802\n")); err != nil || ns != 6514331921*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v", ns, err)
	}
	for _, bad := range []string{"", "12 3", "x 1 2"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
}
