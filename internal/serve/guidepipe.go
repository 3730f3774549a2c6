package serve

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"ftoa"
)

// forecast is the output of the paper's offline prediction step over a
// recorded count history: HP-MSI's per-(slot, area) worker and task counts
// along the guide timeline, which the guide (Algorithm 1) is built from.
type forecast struct {
	grid         *ftoa.Grid
	slots        *ftoa.Slotting
	wPred, tPred []int // slots.Count × grid.NumCells(), slot-major

	// What the boot spent loading the history and forecasting from it
	// (both sides' series and HP-MSI), for the boot line.
	loadTime, forecastTime time.Duration
}

// loadForecast trains on the -guide count history when cfg's algorithm is
// guided and returns nil otherwise.
func loadForecast(cfg Config) (*forecast, error) {
	if cfg.Algorithm != "polar" && cfg.Algorithm != "polarop" && cfg.Algorithm != "hybrid" {
		return nil, nil
	}
	if cfg.GuidePath == "" {
		return nil, fmt.Errorf("algorithm %q needs -guide counts.csv", cfg.Algorithm)
	}
	f, err := os.Open(cfg.GuidePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fc, err := trainCounts(f, cfg)
	if err != nil {
		return nil, fmt.Errorf("training on %s: %w", cfg.GuidePath, err)
	}
	return fc, nil
}

// trainCounts runs the prediction half of the offline pipeline: load the
// per-(day, slot, area) CSV and hand both sides to ftoa.Forecast, which
// trains HP-MSI (the paper's Table 5 winner) on every day but the last and
// predicts the history days the guide timeline replays.
// With GuideAnchor uptime that is one forecast day mapped onto the first
// Horizon seconds of uptime; with wallclock it is a full week — one
// forecast per weekday, each weekday served by the latest history day with
// that weekday — under an anchored, weekly-wrapping slotting, so any
// uptime instant resolves to the right wall-clock (day-of-week,
// time-of-day) slot.
func trainCounts(r io.Reader, cfg Config) (*forecast, error) {
	weekly, err := cfg.weekly()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	days, slots, areas, wCounts, tCounts, weather, err := ftoa.LoadCountsCSV(r)
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	if days < 3 {
		return nil, fmt.Errorf("count history has %d day(s); need >= 3 (HP-MSI trains on all but the last, forecasts the last)", days)
	}
	cols, rows := cfg.GuideGrid[0], cfg.GuideGrid[1]
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
	dow := historyWeekdays(cfg.GuideDow0, days)
	// The history days the timeline replays, in timeline order.
	src := []int{days - 1}
	slotting := ftoa.NewSlotting(cfg.Horizon, slots)
	if weekly {
		week := weekdaySources(dow)
		src = week[:]
		slotting = ftoa.NewAnchoredSlotting(7*cfg.Horizon, 7*slots, cfg.anchorOffset)
	}
	wSeries, err := ftoa.NewSeries(days, slots, areas, wCounts, weather, dow)
	if err != nil {
		return nil, err
	}
	tSeries, err := ftoa.NewSeries(days, slots, areas, tCounts, weather, dow)
	if err != nil {
		return nil, err
	}
	fc := &forecast{
		grid:     ftoa.NewGrid(ftoa.NewRect(cfg.Bounds[0], cfg.Bounds[1], cfg.Bounds[2], cfg.Bounds[3]), cols, rows),
		slots:    slotting,
		loadTime: loaded.Sub(t0),
	}
	if fc.wPred, fc.tPred, err = ftoa.Forecast(wSeries, tSeries, src); err != nil {
		return nil, err
	}
	fc.forecastTime = time.Since(loaded)
	return fc, nil
}

// guide builds the offline guide (Algorithm 1) over the forecast, summed
// into reach-sized areas (blocks). Its edges are tested with no
// representative slack: the slot/2 the experiments keep plans same-slot
// pairs between adjacent areas that a task's reach (Dr·v) cannot cover,
// and the server's Strict recheck then refuses them. With no slack, a
// worker cell's own area one slot earlier has a travel budget of exactly
// 0 when Dr is one slot, and guide.Build drops such edges: only a worker
// and a task at the same point could make that pair.
func (fc *forecast) guide(cfg Config) (*ftoa.Guide, error) {
	grid, wPred, tPred := fc.blocks(2 * cfg.GuideExpiry * cfg.Velocity)
	gc := ftoa.NewGuideConfig(grid, fc.slots, cfg.Velocity, cfg.GuidePatience, cfg.GuideExpiry)
	gc.RepSlack = 0
	return ftoa.BuildGuide(gc, wPred, tPred)
}

// blocks sums the forecast into the areas the served guide is built on:
// on each axis, the smallest whole block of history areas at least reach
// wide (blockSide). Algorithm 1 represents every object by its area's
// centre, which the paper's Lemma 1 remark lets it ignore only while an
// area is small against a task's reach; areas narrower than the reach
// plan pairs between neighbours that a real pair seldom bridges, and a
// network many times the size. With 1×1 blocks it is the forecast itself.
func (fc *forecast) blocks(reach float64) (*ftoa.Grid, []int, []int) {
	g := fc.grid
	kc := blockSide(g.Cols, g.Bounds.Width(), reach)
	kr := blockSide(g.Rows, g.Bounds.Height(), reach)
	coarse := ftoa.NewGrid(g.Bounds, g.Cols/kc, g.Rows/kr)
	areas, blocks := g.NumCells(), coarse.NumCells()
	wPred := make([]int, fc.slots.Count*blocks)
	tPred := make([]int, len(wPred))
	for i := range fc.wPred {
		col, row := g.ColRow(i % areas)
		b := i/areas*blocks + row/kr*coarse.Cols + col/kc
		wPred[b] += fc.wPred[i]
		tPred[b] += fc.tPred[i]
	}
	return coarse, wPred, tPred
}

// blockSide is the number of history areas merged along an axis of n
// areas spanning length: the smallest k dividing n whose k areas are at
// least reach long, or n — the whole axis — when no proper divisor is.
func blockSide(n int, length, reach float64) int {
	for k := 1; k < n; k++ {
		if n%k == 0 && float64(k)*length >= reach*float64(n) {
			return k
		}
	}
	return n
}

// newAlgorithm resolves -alg into a per-shard factory; fc is the forecast
// the guided algorithms build their guide from.
func newAlgorithm(cfg Config, fc *forecast) (func() ftoa.Algorithm, error) {
	switch cfg.Algorithm {
	case "greedy":
		return func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() }, nil
	case "gr":
		if !(cfg.Window > 0) {
			return nil, fmt.Errorf("gr window must be positive, got %v", cfg.Window)
		}
		return func() ftoa.Algorithm { return ftoa.NewGR(cfg.Window) }, nil
	case "polar", "polarop", "hybrid":
		t0 := time.Now()
		g, err := fc.guide(cfg)
		if err != nil {
			return nil, fmt.Errorf("building guide from %s: %w", cfg.GuidePath, err)
		}
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
		log.Printf("ftoa-serve: guide on %dx%d areas (history %dx%d), %d slots, %d pairs, load_ms=%.1f forecast_ms=%.1f build_ms=%.1f",
			g.Cfg.Grid.Cols, g.Cfg.Grid.Rows, fc.grid.Cols, fc.grid.Rows, g.Cfg.Slots.Count, g.MatchedPairs,
			ms(fc.loadTime), ms(fc.forecastTime), ms(time.Since(t0)))
		if w := guideBootWarning(fc.grid, g.Cfg.Grid, 2*cfg.GuideExpiry*cfg.Velocity); w != "" {
			log.Print(w)
		}
		// The guide is read-only: one instance is shared by every
		// shard's algorithm.
		switch cfg.Algorithm {
		case "polar":
			return func() ftoa.Algorithm { return ftoa.NewPOLAR(g) }, nil
		case "polarop":
			return func() ftoa.Algorithm { return ftoa.NewPOLAROP(g) }, nil
		}
		return func() ftoa.Algorithm { return ftoa.NewHybrid(g) }, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want greedy, gr, polar, polarop or hybrid)", cfg.Algorithm)
}

// historyWeekdays labels each of a count history's days with its weekday
// (0 = Sunday, as time.Weekday), the first day being dow0 taken mod 7.
func historyWeekdays(dow0, days int) []int {
	dow := make([]int, days)
	for i := range dow {
		dow[i] = ((dow0+i)%7 + 7) % 7
	}
	return dow
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

// wallclockOffset returns the seconds-into-week of t, scaled so one day
// spans dayLen seconds of the guide timeline (-horizon is the served day
// length; with the default 86400 the scale is 1:1). The day fraction is
// read off the wall-clock components — not elapsed-since-midnight, which
// over- or undershoots by the shifted hour on DST transition days.
func wallclockOffset(t time.Time, dayLen float64) float64 {
	secs := float64(t.Hour()*3600+t.Minute()*60+t.Second()) + float64(t.Nanosecond())/1e9
	return (float64(t.Weekday()) + secs/86400) * dayLen
}
