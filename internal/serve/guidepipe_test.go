package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftoa"
)

// trained is the forecast of the countsCSV history (3 days, 2 slots, 2x2
// areas over the 100x100 bounds) under cfg's anchoring.
func trained(t *testing.T, cfg Config) *forecast {
	t.Helper()
	fc, err := trainCounts(strings.NewReader(countsCSV()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestDemandForecast: the rebalance supervisor's demand query reads the
// same forecast the guide is built from — the whole area's demand is the
// slot's predicted arrivals over the slot width, and a region's share of
// a cell is its share of the cell's area.
func TestDemandForecast(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Horizon = 100 // 2 slots of 50
	fc := trained(t, cfg)
	areas := fc.grid.NumCells()
	if areas != 4 || fc.slots.Count != 2 || fc.slots.Width() != 50 {
		t.Fatalf("forecast geometry: %d areas, %d slots of %v", areas, fc.slots.Count, fc.slots.Width())
	}
	everywhere := ftoa.NewRect(0, 0, 100, 100)
	for slot := 0; slot < fc.slots.Count; slot++ {
		total := 0
		for c := 0; c < areas; c++ {
			total += fc.wPred[slot*areas+c] + fc.tPred[slot*areas+c]
		}
		if total == 0 {
			t.Fatalf("slot %d: nothing predicted", slot)
		}
		want := float64(total) / fc.slots.Width()
		if got := fc.demand(everywhere, fc.slots.Mid(slot)); !near(got, want) {
			t.Errorf("whole-area demand in slot %d = %v, want sum(wPred+tPred)/width = %v", slot, got, want)
		}
	}
	// Cell 3 is the top-right quadrant; its left half gets half its rate,
	// and a region outside the forecast grid gets none.
	cell := float64(fc.wPred[3]+fc.tPred[3]) / fc.slots.Width()
	if got := fc.demand(ftoa.NewRect(50, 50, 100, 100), 0); !near(got, cell) {
		t.Errorf("demand over cell 3 = %v, want its rate %v", got, cell)
	}
	if got := fc.demand(ftoa.NewRect(50, 50, 75, 100), 0); !near(got, cell/2) {
		t.Errorf("demand over half of cell 3 = %v, want %v", got, cell/2)
	}
	if got := fc.demand(ftoa.NewRect(200, 200, 300, 300), 0); got != 0 {
		t.Errorf("demand outside the grid = %v, want 0", got)
	}
}

// TestDemandForecastAnchoring: the forecaster resolves an instant to a
// slot by the guide's own rules — uptime anchoring clamps to the last
// slot past the horizon, wallclock anchoring wraps weekly from the boot
// offset.
func TestDemandForecastAnchoring(t *testing.T) {
	everywhere := ftoa.NewRect(0, 0, 100, 100)
	rate := func(fc *forecast, slot int) float64 {
		areas, total := fc.grid.NumCells(), 0
		for c := 0; c < areas; c++ {
			total += fc.wPred[slot*areas+c] + fc.tPred[slot*areas+c]
		}
		return float64(total) / fc.slots.Width()
	}

	// The test history is flat, which would make every slot read alike:
	// skew it so each (day, slot) predicts a distinct total.
	skewed := func(cfg Config) *forecast {
		fc := trained(t, cfg)
		for i := range fc.wPred {
			fc.wPred[i] += i / fc.grid.NumCells() * 10
		}
		return fc
	}

	cfg := defaultTestConfig()
	cfg.Horizon = 100
	up := skewed(cfg)
	if rate(up, 0) == rate(up, 1) {
		t.Fatal("skew left the two slots indistinguishable")
	}
	for _, tc := range []struct {
		now  float64
		slot int
	}{{0, 0}, {49, 0}, {50, 1}, {99, 1}, {100, 1}, {1e6, 1}, {-5, 0}} {
		if got, want := up.demand(everywhere, tc.now), rate(up, tc.slot); !near(got, want) {
			t.Errorf("uptime anchor: demand at t=%v = %v, want slot %d's %v", tc.now, got, tc.slot, want)
		}
	}

	cfg.GuideAnchor = "wallclock"
	cfg.anchorOffset = (3 + 0.6) * cfg.Horizon // boot mid-Wednesday, second half of the day
	wk := skewed(cfg)
	if wk.slots.Count != 14 {
		t.Fatalf("week forecast has %d slots, want 14", wk.slots.Count)
	}
	for _, tc := range []struct {
		now  float64
		slot int
	}{
		{0, 7},                  // Wednesday afternoon
		{40, 8},                 // 40 later: Thursday morning
		{7 * cfg.Horizon, 7},    // a week of uptime wraps to the boot slot
		{7*cfg.Horizon + 40, 8}, // and keeps walking the week
		{3.4 * cfg.Horizon, 0},  // the end of Saturday: the week starts over
		{-20, 6},                // before boot: Wednesday morning
	} {
		if got, want := wk.demand(everywhere, tc.now), rate(wk, tc.slot); !near(got, want) {
			t.Errorf("wallclock anchor: demand at t=%v = %v, want slot %d's %v", tc.now, got, tc.slot, want)
		}
	}
}

// TestOneTrainingPass: a guided algorithm plus -rebalance-forecast trains
// once — the count history is loaded by one call and HP-MSI constructed
// by one call in the whole package — and both consumers are wired to
// that one forecast.
func TestOneTrainingPass(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{"ftoa.LoadCountsCSV(": 0, "ftoa.Forecast(": 0, "os.Open(": 0}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for call := range calls {
			calls[call] += strings.Count(string(src), call)
		}
	}
	for call, n := range calls {
		if n != 1 {
			t.Errorf("%d call sites of %s in the package, want exactly 1", n, call)
		}
	}

	path := filepath.Join(t.TempDir(), "counts.csv")
	if err := os.WriteFile(path, []byte(countsCSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := defaultTestConfig()
	cfg.Algorithm = "polarop"
	cfg.Mode = "assume-guide"
	cfg.GuidePath = path
	cfg.Horizon = 1000
	cfg.Shards = [2]int{2, 2}
	cfg.Rebalance, cfg.RebalForecast = true, true
	cfg.RebalSplit, cfg.RebalDepth, cfg.RebalTau, cfg.RebalCooldown = 200, 2, 5*time.Second, 10*time.Second
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.admitter.Close()
	if srv.rebal == nil {
		t.Fatal("no rebalance supervisor")
	}
	// The forecaster is optional to everything but its flag's own rules.
	cfg.Rebalance = false
	if _, err := New(cfg); err == nil {
		t.Error("-rebalance-forecast without -rebalance accepted")
	}
	cfg.Rebalance, cfg.Algorithm, cfg.GuidePath = true, "greedy", ""
	if _, err := New(cfg); err == nil {
		t.Error("-rebalance-forecast without -guide accepted")
	}
}

// cityCountsCSV is a generated Beijing-shaped history in the format
// ftoa-gen -counts emits: 10 days (day 0 a Monday) of 96 slots over 4x4
// areas, 2000 arrivals per side per day.
func cityCountsCSV(t *testing.T) string {
	t.Helper()
	c := ftoa.Beijing()
	c.Cols, c.Rows, c.Days = 4, 4, 10
	c.WorkersPerDay, c.TasksPerDay = 2000, 2000
	tr, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	areas := tr.Grid.NumCells()
	for d := 0; d < c.Days; d++ {
		for s := 0; s < c.SlotsPerDay; s++ {
			for a := 0; a < areas; a++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%.4f\n", d, s, a,
					tr.WorkerCounts[d][s*areas+a], tr.TaskCounts[d][s*areas+a], tr.Weather[d][s])
			}
		}
	}
	return sb.String()
}

// servedGuideHash fingerprints what trainCounts + forecast.guide hand the
// online algorithms for history under cfg: both sides' rounded forecasts,
// the matching size and every cell's pair layout.
func servedGuideHash(t *testing.T, history string, cfg Config) string {
	t.Helper()
	fc, err := trainCounts(strings.NewReader(history), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fc.guide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %v %d|", fc.wPred, fc.tPred, g.MatchedPairs)
	for _, cells := range [][]ftoa.CellPlan{g.WorkerCells, g.TaskCells} {
		for _, c := range cells {
			fmt.Fprintf(h, "%v %d %d %v|", c.Key, c.Count, c.Matched, c.Runs)
		}
	}
	return fmt.Sprintf("%d pairs, layout %x", g.MatchedPairs, h.Sum64())
}

// TestServeGuideGolden pins the served guide bit for bit — the HP-MSI
// forecast, the edge policy and the pair layout together — under both
// anchors, for the flat countsCSV history and a generated city history,
// so a refactor of the pipeline behind trainCounts cannot move it unseen.
// HP-MSI reads the weekday only to group history days, so the one-day
// uptime guide must not depend on -guide-dow0 at all.
func TestServeGuideGolden(t *testing.T) {
	flat := defaultTestConfig()
	flat.Horizon = 100 // 2 slots of 50
	flat.GuidePatience, flat.GuideExpiry = 60, 30
	city := defaultTestConfig() // a 86400 s day: 96 slots of 900 s
	city.GuidePatience, city.GuideExpiry = 300, 60
	cityCSV := cityCountsCSV(t)

	for _, tc := range []struct {
		name, history string
		cfg           Config
		uptime        string
		wallclock     [2]string // -guide-dow0 0 and 1
	}{
		{"countsCSV", countsCSV(), flat, "36 pairs, layout e81606766dd64f00",
			[2]string{"252 pairs, layout 2623402403aca37e", "252 pairs, layout 2623402403aca37e"}},
		{"city", cityCSV, city, "1501 pairs, layout ca0ec1a7aec14575",
			[2]string{"10901 pairs, layout 71634b52d968fbf8", "10901 pairs, layout 1143b9a2dd731e43"}},
	} {
		for dow0 := 0; dow0 < 7; dow0++ {
			cfg := tc.cfg
			cfg.GuideDow0 = dow0
			if got := servedGuideHash(t, tc.history, cfg); got != tc.uptime {
				t.Errorf("%s, uptime, -guide-dow0 %d: %s, want %s", tc.name, dow0, got, tc.uptime)
			}
		}
		for dow0, want := range tc.wallclock {
			cfg := tc.cfg
			cfg.GuideAnchor = "wallclock"
			cfg.anchorOffset = (3 + 0.6) * cfg.Horizon // boot mid-Wednesday
			cfg.GuideDow0 = dow0
			if got := servedGuideHash(t, tc.history, cfg); got != want {
				t.Errorf("%s, wallclock, -guide-dow0 %d: %s, want %s", tc.name, dow0, got, want)
			}
		}
	}
}

// TestDefaultDow0MatchesGeneratedHistories: generated histories (ftoa-gen
// -counts) label their days 0 = Monday, while the server numbers weekdays
// like time.Weekday, 0 = Sunday. With DefaultConfig's -guide-dow0 every
// generated day must get the weekday of its own label, or a wallclock
// server serves each real weekday the next history day's forecast.
func TestDefaultDow0MatchesGeneratedHistories(t *testing.T) {
	c := ftoa.Beijing()
	c.Cols, c.Rows, c.Days = 4, 4, 10
	c.WorkersPerDay, c.TasksPerDay = 500, 500
	tr, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	got := historyWeekdays(DefaultConfig().GuideDow0, c.Days)
	monday := time.Date(2024, time.January, 1, 12, 0, 0, 0, time.UTC)
	for d, label := range tr.DayOfWeek {
		if want := monday.AddDate(0, 0, label).Weekday(); time.Weekday(got[d]) != want {
			t.Errorf("history day %d (label %d): served as %v, want %v", d, label, time.Weekday(got[d]), want)
		}
	}
}

// serveShapeConfig and serveShapeCSV are the guided server the committed
// benchmark's wire-batch workload boots (benchmark/bench/workload.go,
// which this module cannot import): a 64 s uptime day of 32 slots over
// 20x20 areas of the 100x100 bounds, v = 2, Dw = 4, Dr = 2, trained on 6
// days of Poisson counts with mean 2500/2 req/s x 2 s / 400 areas = 6.25
// per side and cell.
func serveShapeConfig() Config {
	cfg := defaultTestConfig()
	cfg.Velocity, cfg.Horizon = 2, 64
	cfg.GuidePatience, cfg.GuideExpiry = 4, 2
	return cfg
}

func serveShapeCSV(seed int64) string {
	const days, slots, areas, mean = 6, 32, 400, 6.25
	rng := rand.New(rand.NewSource(seed))
	poisson := func() int {
		limit, p, k := math.Exp(-mean), 1.0, 0
		for {
			if p *= rng.Float64(); p <= limit {
				return k
			}
			k++
		}
	}
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for d := 0; d < days; d++ {
		for s := 0; s < slots; s++ {
			for a := 0; a < areas; a++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", d, s, a, poisson(), poisson())
			}
		}
	}
	return sb.String()
}

// guideLayout fingerprints a guide's matching size and every cell's pair
// layout.
func guideLayout(g *ftoa.Guide) string {
	h := fnv.New64a()
	for _, cells := range [][]ftoa.CellPlan{g.WorkerCells, g.TaskCells} {
		for _, c := range cells {
			fmt.Fprintf(h, "%v %d %d %v|", c.Key, c.Count, c.Matched, c.Runs)
		}
	}
	return fmt.Sprintf("%d pairs, layout %x", g.MatchedPairs, h.Sum64())
}

// TestServeShapeGuideGolden pins Algorithm 1 bit for bit at the shape the
// server builds under the benchmark, at both edge slacks: the repository's
// slot/2 and the server's 0. Both networks need more than one Dinic phase
// (8 at slot/2; 70 at 0, where only positive-budget edges are left and
// the last augmenting path is 189 arcs long), so the layouts are the
// push-relabel finish's, and a change to either solver phase or to the
// network shows up here first.
func TestServeShapeGuideGolden(t *testing.T) {
	cfg := serveShapeConfig()
	fc, err := trainCounts(strings.NewReader(serveShapeCSV(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		slack float64
		want  string
	}{
		{fc.slots.Width() / 2, "79895 pairs, layout 9513e1bb61851904"},
		{0, "79469 pairs, layout f6aaac77bd196152"},
	} {
		gc := ftoa.NewGuideConfig(fc.grid, fc.slots, cfg.Velocity, cfg.GuidePatience, cfg.GuideExpiry)
		gc.RepSlack = tc.slack
		g, err := ftoa.BuildGuide(gc, fc.wPred, fc.tPred)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := guideLayout(g); got != tc.want {
			t.Errorf("RepSlack %v: %s, want %s", tc.slack, got, tc.want)
		}
	}
}

// BenchmarkServeGuideBoot times the guided boot's three layers on the
// benchmark's history: parsing the CSV, the HP-MSI forecast, and
// Algorithm 1 under the served edge policy.
func BenchmarkServeGuideBoot(b *testing.B) {
	cfg := serveShapeConfig()
	history := serveShapeCSV(1)
	b.Run("LoadCountsCSV", func(b *testing.B) {
		b.SetBytes(int64(len(history)))
		b.ReportAllocs()
		for b.Loop() {
			if _, _, _, _, _, _, err := ftoa.LoadCountsCSV(strings.NewReader(history)); err != nil {
				b.Fatal(err)
			}
		}
	})
	days, slots, areas, wCounts, tCounts, weather, err := ftoa.LoadCountsCSV(strings.NewReader(history))
	if err != nil {
		b.Fatal(err)
	}
	dow := historyWeekdays(cfg.GuideDow0, days)
	wSeries, err := ftoa.NewSeries(days, slots, areas, wCounts, weather, dow)
	if err != nil {
		b.Fatal(err)
	}
	tSeries, err := ftoa.NewSeries(days, slots, areas, tCounts, weather, dow)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Forecast", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := ftoa.Forecast(wSeries, tSeries, []int{days - 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	fc, err := trainCounts(strings.NewReader(history), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BuildGuide", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := fc.guide(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestServedGuideStrictRefusals pins why the server builds its guide as
// it does, on one paced stream of the benchmark's shape through a 1x1
// Strict POLAR-OP session. Against the slot/2 guide built from the same
// forecast, the served guide (no representative slack) commits more
// matches because the Strict recheck refuses a smaller share of the pairs
// it plans. Against the same forecast with its zero-budget edges kept —
// a slack of 1e-9 gives the same-area edge to the previous slot, whose
// budget sr + Dr − sw is exactly 0, a budget again, as the server had
// before it dropped them — it commits more matches too, and it plans no
// pair whose budget is not positive.
func TestServedGuideStrictRefusals(t *testing.T) {
	cfg := serveShapeConfig()
	fc, err := trainCounts(strings.NewReader(serveShapeCSV(2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := fc.guide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc := ftoa.NewGuideConfig(fc.grid, fc.slots, cfg.Velocity, cfg.GuidePatience, cfg.GuideExpiry)
	halfSlot, err := ftoa.BuildGuide(gc, fc.wPred, fc.tPred)
	if err != nil {
		t.Fatal(err)
	}
	gc.RepSlack = 1e-9
	kept, err := ftoa.BuildGuide(gc, fc.wPred, fc.tPred)
	if err != nil {
		t.Fatal(err)
	}
	// zeroBudget counts the pairs g plans between a worker cell and a task
	// cell whose representative travel budget, with no slack, is ≤ 0.
	zeroBudget := func(g *ftoa.Guide) (pairs int) {
		for _, wc := range g.WorkerCells {
			for _, r := range wc.Runs {
				tc := g.TaskCells[r.Partner]
				if fc.slots.Mid(tc.Key.Slot)+cfg.GuideExpiry-fc.slots.Mid(wc.Key.Slot) <= 0 {
					pairs += int(r.Count)
				}
			}
		}
		return pairs
	}
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode: ftoa.Strict, Velocity: cfg.Velocity, Bounds: ftoa.NewRect(0, 0, 100, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 000 uniform arrivals, half of each side, paced at the benchmark's
	// 2500/s from the middle of the guide's day.
	const n, rate, start = 20000, 2500.0, 16.0
	run := func(g *ftoa.Guide) (matched int, refused float64) {
		rng := rand.New(rand.NewSource(7))
		sess := m.NewSession(ftoa.NewPOLAROP(g))
		for i := 0; i < n; i++ {
			at, loc := start+float64(i)/rate, ftoa.Pt(rng.Float64()*100, rng.Float64()*100)
			if rng.Intn(2) == 0 {
				_, err = sess.AddWorker(ftoa.Worker{Loc: loc, Arrive: at, Patience: cfg.GuidePatience})
			} else {
				_, err = sess.AddTask(ftoa.Task{Loc: loc, Release: at, Expiry: cfg.GuideExpiry})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sess.Finish()
		return sess.Matching().Size(), float64(sess.Rejected()) / float64(sess.Attempted())
	}
	sm, sr := run(served)
	hm, hr := run(halfSlot)
	km, kr := run(kept)
	sz, kz := zeroBudget(served), zeroBudget(kept)
	t.Logf("served guide: %d matches, %.3f of attempts refused, %d zero-budget pairs; slot/2 guide: %d, %.3f; zero-budget edges kept: %d, %.3f, %d zero-budget pairs",
		sm, sr, sz, hm, hr, km, kr, kz)
	if sm <= hm || sr >= hr {
		t.Errorf("served guide: %d matches, refusal rate %.3f; slot/2 guide: %d, %.3f: want more matches and fewer refusals",
			sm, sr, hm, hr)
	}
	if sz != 0 || kz == 0 {
		t.Errorf("zero-budget pairs: served guide %d, want 0; with them kept %d, want some", sz, kz)
	}
	if sm <= km {
		t.Errorf("served guide: %d matches; with zero-budget edges kept: %d: want more", sm, km)
	}
}
