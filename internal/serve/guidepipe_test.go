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

// TestDemandForecastAnchoring: the forecast resolves an instant to a slot
// by the guide's rules — uptime anchoring clamps to the last slot past
// the horizon, wallclock anchoring wraps weekly from the boot offset.
func TestDemandForecastAnchoring(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.Horizon = 100 // 2 slots of 50
	up := trained(t, cfg)
	if up.slots.Count != 2 || up.slots.Width() != 50 {
		t.Fatalf("uptime forecast has %d slots of %v, want 2 of 50", up.slots.Count, up.slots.Width())
	}
	for _, tc := range []struct {
		now  float64
		slot int
	}{{0, 0}, {49, 0}, {50, 1}, {99, 1}, {100, 1}, {1e6, 1}, {-5, 0}} {
		if got := up.slots.SlotOf(tc.now); got != tc.slot {
			t.Errorf("uptime anchor: t=%v falls in slot %d, want %d", tc.now, got, tc.slot)
		}
	}

	cfg.GuideAnchor = "wallclock"
	cfg.anchorOffset = (3 + 0.6) * cfg.Horizon // boot mid-Wednesday, second half of the day
	wk := trained(t, cfg)
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
		if got := wk.slots.SlotOf(tc.now); got != tc.slot {
			t.Errorf("wallclock anchor: t=%v falls in slot %d, want %d", tc.now, got, tc.slot)
		}
	}
}

// TestOneTrainingPass: the count history is loaded by one call and HP-MSI
// constructed by one call in the whole package, and only a guided
// algorithm trains at all: the other algorithms boot without opening
// -guide even when it names no file.
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

	for _, alg := range []string{"greedy", "gr"} {
		cfg := defaultTestConfig()
		cfg.Algorithm = alg
		cfg.GuidePath = filepath.Join(t.TempDir(), "missing.csv")
		fc, err := loadForecast(cfg)
		if fc != nil || err != nil {
			t.Errorf("%s: loadForecast = %v, %v; want nothing trained", alg, fc, err)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		srv.admitter.Close()
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
	return renderCityCounts(t, c)
}

// renderCityCounts generates c's history and writes it as ftoa-gen -kind
// city -counts does.
func renderCityCounts(t *testing.T, c ftoa.City) string {
	t.Helper()
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
// forecast, the area blocks, the edge policy and the pair layout
// together — under both anchors, for the flat countsCSV history and a
// generated city history, so a refactor of the pipeline behind
// trainCounts cannot move it unseen.
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
		{"countsCSV", countsCSV(), flat, "36 pairs, layout 58504fa52f231088",
			[2]string{"252 pairs, layout 816a9c18b18bbc9e", "252 pairs, layout 816a9c18b18bbc9e"}},
		{"city", cityCSV, city, "1509 pairs, layout c493b4a2122a10d1",
			[2]string{"10936 pairs, layout 9b41e719fc7d7de9", "10936 pairs, layout 9b03de75e20b7c4b"}},
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

// TestForecastGolden pins HP-MSI's forecast bit for bit: hashes of the
// rounded worker and task counts ftoa.Forecast hands trainCounts, for the
// benchmark's history under the uptime anchor (one forecast day) and for
// the history ftoa-gen -kind city -counts writes at its defaults (Beijing,
// 20x30 areas, 7 days of 96 slots, 20 000 arrivals per side per day, seed
// 1) under the wallclock anchor (seven forecast days, one per weekday).
func TestForecastGolden(t *testing.T) {
	city := ftoa.Beijing()
	city.Days, city.Seed = 7, 1
	city.WorkersPerDay, city.TasksPerDay = 20000, 20000
	wallclock := defaultTestConfig()
	wallclock.GuideGrid = [2]int{20, 30}
	wallclock.GuideAnchor = "wallclock"
	wallclock.anchorOffset = (3 + 0.6) * wallclock.Horizon
	for _, tc := range []struct {
		name, history  string
		cfg            Config
		workers, tasks string
	}{
		{"serve shape, uptime", serveShapeCSV(1), serveShapeConfig(),
			"12800 cells, ab2131ea2963a60a", "12800 cells, d76efe4d2290a569"},
		{"ftoa-gen city, wallclock", renderCityCounts(t, city), wallclock,
			"403200 cells, 339ba22b24f944cb", "403200 cells, 75b9de85f5f4fd5c"},
	} {
		fc, err := trainCounts(strings.NewReader(tc.history), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			name string
			pred []int
			want string
		}{{"workers", fc.wPred, tc.workers}, {"tasks", fc.tPred, tc.tasks}} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%v", side.pred)
			if got := fmt.Sprintf("%d cells, %x", len(side.pred), h.Sum64()); got != side.want {
				t.Errorf("%s, %s: %s, want %s", tc.name, side.name, got, side.want)
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
	const mean = 6.25
	return shapeHistory(seed, func(rng *rand.Rand, w, k []int) {
		poisson := func() int {
			limit, p, n := math.Exp(-mean), 1.0, 0
			for {
				if p *= rng.Float64(); p <= limit {
					return n
				}
				n++
			}
		}
		for a := range w {
			w[a], k[a] = poisson(), poisson()
		}
	})
}

// shapeHistory renders a count history at the benchmark's shape, 6 days
// of 32 slots over 20x20 areas: fill draws each slot's per-area worker
// and task counts, starting from zero, from one rng seeded with seed.
func shapeHistory(seed int64, fill func(rng *rand.Rand, w, k []int)) string {
	const days, slots, areas = 6, 32, 400
	rng := rand.New(rand.NewSource(seed))
	w, k := make([]int, areas), make([]int, areas)
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for d := 0; d < days; d++ {
		for s := 0; s < slots; s++ {
			clear(w)
			clear(k)
			fill(rng, w, k)
			for a := range w {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", d, s, a, w[a], k[a])
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
// the last augmenting path is 189 arcs long), so the layouts are Dinic's
// run to completion, and a change to any solver phase or to the network
// shows up here first. The third row is what the server serves:
// fc.guide, the same forecast summed into 10x10 areas of 10 units.
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
		{fc.slots.Width() / 2, "79895 pairs, layout cb389e2f83623644"},
		{0, "79469 pairs, layout cf39e630af6f3364"},
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
	g, err := fc.guide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := guideLayout(g), "78678 pairs, layout 66e3c995ffb3d21c"; got != want {
		t.Errorf("served guide: %s, want %s", got, want)
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

// strictRun feeds 20 000 arrivals, half of each side, paced at the
// benchmark's 2500/s from the middle of the guide's day and placed by
// place, through a 1x1 Strict POLAR-OP session on g.
func strictRun(t *testing.T, cfg Config, g *ftoa.Guide, place func(*rand.Rand) ftoa.Point) (matched, attempted int) {
	t.Helper()
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode: ftoa.Strict, Velocity: cfg.Velocity, Bounds: ftoa.NewRect(0, 0, 100, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, rate, start = 20000, 2500.0, 16.0
	rng := rand.New(rand.NewSource(7))
	sess := m.NewSession(ftoa.NewPOLAROP(g))
	for i := 0; i < n; i++ {
		at, loc := start+float64(i)/rate, place(rng)
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
	return sess.Matching().Size(), sess.Attempted()
}

func uniformPoint(rng *rand.Rand) ftoa.Point { return ftoa.Pt(rng.Float64()*100, rng.Float64()*100) }

// hotspotPoint is the benchmark's hotspot shape: 80% of arrivals inside
// the central square a tenth of the side wide, the rest uniform.
func hotspotPoint(rng *rand.Rand) ftoa.Point {
	if rng.Float64() < 0.8 {
		return ftoa.Pt(45+rng.Float64()*10, 45+rng.Float64()*10)
	}
	return uniformPoint(rng)
}

// historyGuide is Algorithm 1 on the forecast's own (history) grid with
// representative slack slack.
func historyGuide(t *testing.T, fc *forecast, cfg Config, slack float64) *ftoa.Guide {
	t.Helper()
	gc := ftoa.NewGuideConfig(fc.grid, fc.slots, cfg.Velocity, cfg.GuidePatience, cfg.GuideExpiry)
	gc.RepSlack = slack
	g, err := ftoa.BuildGuide(gc, fc.wPred, fc.tPred)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hotspotCSV is a history of the benchmark's hotspot shape: each slot
// 2500 arrivals per side placed by hotspotPoint.
func hotspotCSV(seed int64) string {
	grid := ftoa.NewGrid(ftoa.NewRect(0, 0, 100, 100), 20, 20)
	return shapeHistory(seed, func(rng *rand.Rand, w, k []int) {
		for i := 0; i < 2500; i++ {
			w[grid.CellOf(hotspotPoint(rng))]++
			k[grid.CellOf(hotspotPoint(rng))]++
		}
	})
}

// TestServedGuideStrictRefusals pins why the server builds its guide as
// it does, on paced streams of the benchmark's shape — uniform, and
// hotspot-shaped on a hotspot history, where the history grid's small
// areas are crowded — through a 1x1 Strict POLAR-OP session. The served
// guide — reach-sized areas, no representative slack — commits more
// matches than the same forecast's guide on the history grid with no
// slack (the server's guide before it summed areas into blocks) and more
// than the slot/2 guide the experiments build. POLAR-OP pools
// association per cell and the Strict recheck scans the partner cells'
// waiting queues; on areas at least 2·Dr·v wide those queues are deeper,
// so an arrival more often finds someone within reach. No guide plans a
// pair whose travel budget is not positive, and dropping those edges is
// itself a gain: the history grid's guide with them kept (a slack of
// 1e-9 gives the same-area edge to the previous slot, whose budget
// sr + Dr − sw is exactly 0) plans some and commits fewer matches.
func TestServedGuideStrictRefusals(t *testing.T) {
	cfg := serveShapeConfig()
	for _, tc := range []struct {
		name    string
		history string
		place   func(*rand.Rand) ftoa.Point
	}{
		{"uniform", serveShapeCSV(2), uniformPoint},
		{"hotspot", hotspotCSV(3), hotspotPoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc, err := trainCounts(strings.NewReader(tc.history), cfg)
			if err != nil {
				t.Fatal(err)
			}
			served, err := fc.guide(cfg)
			if err != nil {
				t.Fatal(err)
			}
			flat := historyGuide(t, fc, cfg, 0)
			halfSlot := historyGuide(t, fc, cfg, fc.slots.Width()/2)
			kept := historyGuide(t, fc, cfg, 1e-9)
			// zeroBudget counts the pairs g plans between a worker cell and
			// a task cell whose representative travel budget, with no
			// slack, is ≤ 0.
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
			sm, sa := strictRun(t, cfg, served, tc.place)
			fm, fa := strictRun(t, cfg, flat, tc.place)
			hm, ha := strictRun(t, cfg, halfSlot, tc.place)
			km, _ := strictRun(t, cfg, kept, tc.place)
			sz, fz, kz := zeroBudget(served), zeroBudget(flat), zeroBudget(kept)
			t.Logf("served guide (%dx%d areas): %d matches, %.2f attempts per match; history grid: %d, %.2f; slot/2 on the history grid: %d, %.2f; zero-budget edges kept: %d",
				served.Cfg.Grid.Cols, served.Cfg.Grid.Rows, sm, float64(sa)/float64(sm), fm, float64(fa)/float64(fm), hm, float64(ha)/float64(hm), km)
			if sm <= fm || sm <= hm {
				t.Errorf("served guide: %d matches; history grid: %d; slot/2: %d: want the served guide's the most", sm, fm, hm)
			}
			if fm <= km {
				t.Errorf("history grid: %d matches; with zero-budget edges kept: %d: want more", fm, km)
			}
			if sz != 0 || fz != 0 || kz == 0 {
				t.Errorf("zero-budget pairs: served guide %d, history grid %d, want 0; with them kept %d, want some", sz, fz, kz)
			}
		})
	}
}

// TestBlockSide: on each axis the served guide merges the smallest whole
// block of history areas at least 2·Dr·v long, or the whole axis.
func TestBlockSide(t *testing.T) {
	for _, tc := range []struct {
		n             int
		length, reach float64
		want          int
	}{
		{20, 100, 8, 2},    // the benchmark: 5-unit areas, Dr·v = 4
		{20, 100, 5, 1},    // areas exactly as long as the reach
		{20, 100, 1, 1},    // and longer
		{30, 100, 8, 3},    // 3.33-unit areas: two are 6.67 long, three 10
		{20, 100, 26, 10},  // 6 to 9 areas would do, but none divides 20
		{7, 100, 30, 7},    // no proper divisor of 7 reaches: the whole axis
		{20, 100, 200, 20}, // not even the whole axis reaches
		{1, 100, 200, 1},
	} {
		if got := blockSide(tc.n, tc.length, tc.reach); got != tc.want {
			t.Errorf("blockSide(%d areas over %v, reach %v) = %d, want %d", tc.n, tc.length, tc.reach, got, tc.want)
		}
	}
}

// randomCountsCSV is a 3-day history of 4 slots over areas areas with
// small random counts.
func randomCountsCSV(areas int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for d := 0; d < 3; d++ {
		for s := 0; s < 4; s++ {
			for a := 0; a < areas; a++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", d, s, a, rng.Intn(8), rng.Intn(8))
			}
		}
	}
	return sb.String()
}

// TestGuideBlocks: the served guide's areas are whole blocks of history
// areas, and summing the forecast into them moves every prediction to
// the block that contains its area and loses none, per slot and side —
// on the benchmark's square history, on non-square -guide-grid histories
// (one with an axis no proper block reaches across) and on a wallclock
// week of 7 × 32 slots.
func TestGuideBlocks(t *testing.T) {
	shape := serveShapeConfig()
	week := shape
	week.GuideAnchor = "wallclock"
	week.anchorOffset = (3 + 0.6) * week.Horizon
	wide := defaultTestConfig() // reach 2·15·1 = 30
	wide.Horizon, wide.GuidePatience, wide.GuideExpiry = 100, 30, 15
	wide.GuideGrid = [2]int{6, 4} // 16.7 x 25 areas
	prime := wide
	prime.GuideGrid = [2]int{7, 6} // 14.3 x 16.7: no proper block of 7 is 30 long

	for _, tc := range []struct {
		name       string
		history    string
		cfg        Config
		cols, rows int
		slots      int
	}{
		{"benchmark", serveShapeCSV(1), shape, 10, 10, 32},
		{"non-square", randomCountsCSV(24, 1), wide, 3, 2, 4},
		{"prime axis", randomCountsCSV(42, 2), prime, 1, 3, 4},
		{"wallclock week", serveShapeCSV(1), week, 10, 10, 7 * 32},
	} {
		fc, err := trainCounts(strings.NewReader(tc.history), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grid, wPred, tPred := fc.blocks(2 * tc.cfg.GuideExpiry * tc.cfg.Velocity)
		if grid.Cols != tc.cols || grid.Rows != tc.rows || fc.slots.Count != tc.slots {
			t.Fatalf("%s: guide on %dx%d areas, %d slots; want %dx%d, %d", tc.name, grid.Cols, grid.Rows, fc.slots.Count, tc.cols, tc.rows, tc.slots)
		}
		areas, blocks := fc.grid.NumCells(), grid.NumCells()
		if len(wPred) != tc.slots*blocks || len(tPred) != len(wPred) {
			t.Fatalf("%s: %d and %d block predictions, want %d", tc.name, len(wPred), len(tPred), tc.slots*blocks)
		}
		for _, side := range []struct {
			name          string
			areas, blocks []int
		}{{"workers", fc.wPred, wPred}, {"tasks", fc.tPred, tPred}} {
			want := make([]int, len(side.blocks))
			for slot := 0; slot < tc.slots; slot++ {
				inAreas, inBlocks := 0, 0
				for c := 0; c < areas; c++ {
					n := side.areas[slot*areas+c]
					inAreas += n
					want[slot*blocks+grid.CellOf(fc.grid.Center(c))] += n
				}
				for b := 0; b < blocks; b++ {
					inBlocks += side.blocks[slot*blocks+b]
				}
				if inAreas != inBlocks {
					t.Errorf("%s, %s, slot %d: %d predicted over the history's areas, %d over the guide's", tc.name, side.name, slot, inAreas, inBlocks)
				}
			}
			for b := range want {
				if side.blocks[b] != want[b] {
					t.Fatalf("%s, %s: block prediction %d is %d, want the %d of the areas it contains", tc.name, side.name, b, side.blocks[b], want[b])
				}
			}
		}
		g, err := fc.guide(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g.Cfg.Grid.Cols != tc.cols || g.Cfg.Grid.Rows != tc.rows || g.Cfg.Slots.Count != tc.slots {
			t.Errorf("%s: served guide on %dx%d areas, %d slots", tc.name, g.Cfg.Grid.Cols, g.Cfg.Grid.Rows, g.Cfg.Slots.Count)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestGuideBlocksReachedAlready: when the history's areas already span
// 2·Dr·v, the served guide is Algorithm 1 on the history grid itself.
func TestGuideBlocksReachedAlready(t *testing.T) {
	cfg := serveShapeConfig()
	cfg.GuideExpiry = 1.25 // 2·Dr·v = 5, the history's area side
	fc, err := trainCounts(strings.NewReader(serveShapeCSV(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := fc.guide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := guideLayout(served), guideLayout(historyGuide(t, fc, cfg, 0)); got != want {
		t.Errorf("served guide: %s; on the history grid: %s", got, want)
	}
	if served.Cfg.Grid.Cols != 20 || served.Cfg.Grid.Rows != 20 {
		t.Errorf("served guide on %dx%d areas, want the history's 20x20", served.Cfg.Grid.Cols, served.Cfg.Grid.Rows)
	}
}
