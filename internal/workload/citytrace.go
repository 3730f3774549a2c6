package workload

import (
	"fmt"
	"math"

	"ftoa/internal/geo"
	"ftoa/internal/mathx"
	"ftoa/internal/model"
	"ftoa/internal/predict"
	"ftoa/internal/timeslot"
)

// City configures the multi-day taxi-calling trace generator that stands in
// for the paper's proprietary Didi datasets (Beijing and Hangzhou, Jul–Dec
// 2016). It produces (a) a per-day, per-slot, per-area count history with
// day-of-week, rush-hour, hotspot and weather structure — the input the
// Section 6.3 predictors consume — and (b) realized arrival streams for
// test days — the input the online assignment experiments consume.
//
// That structure is what the paper's experiments exercise: the predictors
// see the same kinds of regularity Table 5 ranks them on, and the test-day
// stream has the hotspots and rush hours that make guidance matter.
type City struct {
	Name string

	Cols, Rows  int // prediction grid (paper: 20 × 30 = 600 areas)
	SlotsPerDay int // paper: 96 slots of 15 min
	Days        int // history length, last day(s) used for testing

	WorkersPerDay int // paper Beijing: 50637, Hangzhou: 49324
	TasksPerDay   int // paper Beijing: 54129, Hangzhou: 48507

	Hotspots int // number of spatial demand clusters

	WorkerPatience float64 // Dw in slot units (paper: 2)
	TaskExpiry     float64 // Dr in slot units (paper sweeps 0.5–1.5)
	Velocity       float64 // space units per slot unit

	Seed uint64
}

// Beijing returns a configuration shaped like the paper's Beijing dataset.
// The defaults are scaled to one day of the sampled trace.
func Beijing() City {
	return City{
		Name: "Beijing", Cols: 20, Rows: 30, SlotsPerDay: 96, Days: 28,
		WorkersPerDay: 50637, TasksPerDay: 54129, Hotspots: 6,
		WorkerPatience: 2, TaskExpiry: 1, Velocity: 5, Seed: 0xBEE,
	}
}

// Hangzhou returns a configuration shaped like the paper's Hangzhou
// dataset.
func Hangzhou() City {
	return City{
		Name: "Hangzhou", Cols: 20, Rows: 30, SlotsPerDay: 96, Days: 28,
		WorkersPerDay: 49324, TasksPerDay: 48507, Hotspots: 5,
		WorkerPatience: 2, TaskExpiry: 1, Velocity: 5, Seed: 0x4A52,
	}
}

// Trace is a generated multi-day city history plus the machinery to realize
// arrival streams for individual days.
type Trace struct {
	City  City
	Grid  *geo.Grid
	Slots *timeslot.Slotting // slots of one day

	// WorkerCounts and TaskCounts hold the realized historical counts:
	// index [day][slot*areas + area].
	WorkerCounts [][]int
	TaskCounts   [][]int

	// Weather is the per-(day, slot) weather intensity in [0, 1]
	// (0 = clear, 1 = heavy rain), one of the covariates the non-linear
	// predictors of Table 5 can exploit.
	Weather [][]float64

	// DayOfWeek holds 0–6 per day (0 = Monday).
	DayOfWeek []int

	// Underlying intensities (per day), kept so tests can compare realized
	// counts against the generating process.
	workerLambda [][]float64
	taskLambda   [][]float64

	rng *mathx.RNG
}

// hotspot is one spatial demand cluster.
type hotspot struct {
	center geo.Point
	sigma  float64
	weight float64
}

// Generate builds the full history. It is deterministic in City.Seed.
func (c City) Generate() (*Trace, error) {
	switch {
	case c.Cols <= 0 || c.Rows <= 0:
		return nil, fmt.Errorf("workload: bad city grid %dx%d", c.Cols, c.Rows)
	case c.SlotsPerDay <= 0 || c.Days <= 0:
		return nil, fmt.Errorf("workload: bad city horizon %d slots × %d days", c.SlotsPerDay, c.Days)
	case c.WorkersPerDay < 0 || c.TasksPerDay < 0:
		return nil, fmt.Errorf("workload: negative populations")
	case c.Hotspots <= 0:
		return nil, fmt.Errorf("workload: need at least one hotspot")
	case c.Velocity <= 0:
		return nil, fmt.Errorf("workload: non-positive velocity")
	}
	rng := mathx.NewRNG(c.Seed)
	grid := geo.NewGrid(geo.NewRect(0, 0, float64(c.Cols), float64(c.Rows)), c.Cols, c.Rows)
	slots := timeslot.New(float64(c.SlotsPerDay), c.SlotsPerDay)
	tr := &Trace{
		City:  c,
		Grid:  grid,
		Slots: slots,
		rng:   rng,
	}

	// Spatial structure with commute asymmetry: morning demand concentrates
	// in residential districts, evening demand in business districts, and
	// the two sets of hotspots sit in different parts of the city. Idle
	// supply is distributed diffusely around the *average* demand — taxis
	// wait where the day's traffic generally is, not where the next rush
	// will be. This shifting demand geography is exactly the situation the
	// paper's worker guidance exploits and wait-in-place baselines cannot
	// follow. Hotspot geometry is expressed relative to the grid dimension
	// so scaled-down cities keep the same concentration structure.
	dim := float64(c.Cols)
	if float64(c.Rows) < dim {
		dim = float64(c.Rows)
	}
	newSpots := func(n int) []hotspot {
		spots := make([]hotspot, n)
		for i := range spots {
			spots[i] = hotspot{
				center: geo.Pt(rng.Float64()*float64(c.Cols), rng.Float64()*float64(c.Rows)),
				sigma:  (0.03 + 0.06*rng.Float64()) * dim,
				weight: 0.4 + rng.Float64()*1.2,
			}
		}
		return spots
	}
	morningSpots := newSpots(c.Hotspots)
	eveningSpots := newSpots(c.Hotspots)
	morningShares := spatialShares(grid, morningSpots)
	eveningShares := spatialShares(grid, eveningSpots)

	// Supply: wider clusters offset from the average demand.
	workerSpots := make([]hotspot, 0, 2*c.Hotspots)
	for _, src := range [][]hotspot{morningSpots, eveningSpots} {
		for _, h := range src {
			workerSpots = append(workerSpots, hotspot{
				center: h.center.Add(geo.Pt(rng.NormalMS(0, 0.12*dim), rng.NormalMS(0, 0.12*dim))),
				sigma:  h.sigma * (2.0 + rng.Float64()),
				weight: h.weight * (0.8 + rng.Float64()*0.4),
			})
		}
	}
	workerSpatial := spatialShares(grid, workerSpots)

	// Temporal structure: morning and evening rush hours over a base load.
	// Supply is much flatter than demand, so rush hours locally exhaust
	// the idle workers near a hotspot.
	taskTemporal := rushHourProfile(c.SlotsPerDay, 0.45)
	workerTemporal := rushHourProfile(c.SlotsPerDay, 0.15)

	// Per-slot blend between the morning and evening demand geography:
	// before noon demand follows the morning map, after noon it migrates
	// to the evening map.
	morningBlend := make([]float64, c.SlotsPerDay)
	for s := range morningBlend {
		hour := float64(s) / float64(c.SlotsPerDay) * 24
		morningBlend[s] = 1 / (1 + math.Exp((hour-13)/1.5))
	}

	areas := grid.NumCells()
	tr.WorkerCounts = make([][]int, c.Days)
	tr.TaskCounts = make([][]int, c.Days)
	tr.Weather = make([][]float64, c.Days)
	tr.DayOfWeek = make([]int, c.Days)
	tr.workerLambda = make([][]float64, c.Days)
	tr.taskLambda = make([][]float64, c.Days)

	noiseRNG := rng.Split()
	weatherRNG := rng.Split()
	countRNG := rng.Split()

	for day := 0; day < c.Days; day++ {
		dow := day % 7
		tr.DayOfWeek[day] = dow
		// Weekday factor: demand dips on weekends (5 = Sat, 6 = Sun),
		// supply dips slightly less.
		dowTask := 1.0
		dowWorker := 1.0
		if dow >= 5 {
			dowTask = 0.78
			dowWorker = 0.88
		}
		// Weather: smooth per-day storm intensity with within-day drift.
		base := weatherRNG.Float64()
		storm := base * base // most days clear, some rainy
		weather := make([]float64, c.SlotsPerDay)
		level := storm * weatherRNG.Float64()
		for s := 0; s < c.SlotsPerDay; s++ {
			level = mathx.Clamp(level+weatherRNG.NormalMS(0, 0.03), 0, storm)
			weather[s] = level
		}
		tr.Weather[day] = weather

		// Per-day multiplicative noise shared across all cells (city-wide
		// demand shocks) plus per-slot jitter.
		dayShockT := math.Exp(noiseRNG.NormalMS(0, 0.08))
		dayShockW := math.Exp(noiseRNG.NormalMS(0, 0.06))

		wl := make([]float64, c.SlotsPerDay*areas)
		tl := make([]float64, c.SlotsPerDay*areas)
		wc := make([]int, c.SlotsPerDay*areas)
		tc := make([]int, c.SlotsPerDay*areas)
		for s := 0; s < c.SlotsPerDay; s++ {
			// Rain raises taxi demand and suppresses supply.
			weatherTask := 1 + 0.5*weather[s]
			weatherWorker := 1 - 0.25*weather[s]
			slotShockT := math.Exp(noiseRNG.NormalMS(0, 0.05))
			slotShockW := math.Exp(noiseRNG.NormalMS(0, 0.05))
			tBase := float64(c.TasksPerDay) * taskTemporal[s] * dowTask * weatherTask * dayShockT * slotShockT
			wBase := float64(c.WorkersPerDay) * workerTemporal[s] * dowWorker * weatherWorker * dayShockW * slotShockW
			blend := morningBlend[s]
			for a := 0; a < areas; a++ {
				lt := tBase * (blend*morningShares[a] + (1-blend)*eveningShares[a])
				lw := wBase * workerSpatial[a]
				tl[s*areas+a] = lt
				wl[s*areas+a] = lw
				tc[s*areas+a] = countRNG.Poisson(lt)
				wc[s*areas+a] = countRNG.Poisson(lw)
			}
		}
		tr.workerLambda[day] = wl
		tr.taskLambda[day] = tl
		tr.WorkerCounts[day] = wc
		tr.TaskCounts[day] = tc
	}
	return tr, nil
}

// spatialShares evaluates the hotspot mixture at each cell center and
// normalises to a probability vector over areas.
func spatialShares(grid *geo.Grid, spots []hotspot) []float64 {
	shares := make([]float64, grid.NumCells())
	const background = 0.004 // uniform floor so no cell is impossible
	for cell := range shares {
		p := grid.Center(cell)
		v := background
		for _, h := range spots {
			d2 := p.SqDist(h.center)
			v += h.weight * math.Exp(-d2/(2*h.sigma*h.sigma))
		}
		shares[cell] = v
	}
	total := mathx.SumFloats(shares)
	for i := range shares {
		shares[i] /= total
	}
	return shares
}

// rushHourProfile returns a normalised per-slot share with morning (08:00)
// and evening (18:00) peaks; peakiness controls how much mass sits in the
// peaks versus the base load.
func rushHourProfile(slotsPerDay int, peakiness float64) []float64 {
	prof := make([]float64, slotsPerDay)
	for s := range prof {
		hour := float64(s) / float64(slotsPerDay) * 24
		morning := math.Exp(-sq(hour-8) / (2 * sq(1.4)))
		evening := math.Exp(-sq(hour-18) / (2 * sq(1.8)))
		night := 0.15 + 0.85*math.Exp(-sq(math.Mod(hour+12, 24)-12)/(2*sq(6)))
		prof[s] = night*(1-peakiness) + (morning+evening)*peakiness*2
	}
	total := mathx.SumFloats(prof)
	for i := range prof {
		prof[i] /= total
	}
	return prof
}

func sq(x float64) float64 { return x * x }

// Instance realizes the arrival stream of one day: each historical count
// becomes that many objects with locations uniform within the cell and
// times uniform within the slot. Dr may be overridden per experiment
// (the Figure 5(c,d,g,h,k,l) sweeps) by setting taskExpiry > 0; pass 0 to
// use the configured default.
func (tr *Trace) Instance(day int, taskExpiry float64) (*model.Instance, error) {
	if day < 0 || day >= tr.City.Days {
		return nil, fmt.Errorf("workload: day %d out of range [0,%d)", day, tr.City.Days)
	}
	if taskExpiry <= 0 {
		taskExpiry = tr.City.TaskExpiry
	}
	rng := mathx.NewRNG(tr.City.Seed ^ (uint64(day+1) * 0x9e3779b97f4a7c15))
	in := &model.Instance{
		Velocity: tr.City.Velocity,
		Bounds:   tr.Grid.Bounds,
		Horizon:  tr.Slots.Horizon,
	}
	areas := tr.Grid.NumCells()
	slotW := tr.Slots.Width()
	id := 0
	for s := 0; s < tr.City.SlotsPerDay; s++ {
		for a := 0; a < areas; a++ {
			rect := tr.Grid.CellRect(a)
			for k := 0; k < tr.WorkerCounts[day][s*areas+a]; k++ {
				in.Workers = append(in.Workers, model.Worker{
					ID:       id,
					Loc:      geo.Pt(rect.MinX+rng.Float64()*rect.Width(), rect.MinY+rng.Float64()*rect.Height()),
					Arrive:   (float64(s) + rng.Float64()) * slotW,
					Patience: tr.City.WorkerPatience,
				})
				id++
			}
		}
	}
	id = 0
	for s := 0; s < tr.City.SlotsPerDay; s++ {
		for a := 0; a < areas; a++ {
			rect := tr.Grid.CellRect(a)
			for k := 0; k < tr.TaskCounts[day][s*areas+a]; k++ {
				in.Tasks = append(in.Tasks, model.Task{
					ID:      id,
					Loc:     geo.Pt(rect.MinX+rng.Float64()*rect.Width(), rect.MinY+rng.Float64()*rect.Height()),
					Release: (float64(s) + rng.Float64()) * slotW,
					Expiry:  taskExpiry,
				})
				id++
			}
		}
	}
	return in, nil
}

// Lambda returns the generating intensities for one day (worker and task),
// exposed for tests and for the "oracle" prediction ablation.
func (tr *Trace) Lambda(day int) (worker, task []float64) {
	return tr.workerLambda[day], tr.taskLambda[day]
}

// Series returns the trace's worker and task count histories as
// prediction series, with its weather and day-of-week covariates.
func (tr *Trace) Series() (workers, tasks *predict.Series, err error) {
	days, slots, areas := tr.City.Days, tr.City.SlotsPerDay, tr.Grid.NumCells()
	flatten := func(src [][]int) []int {
		out := make([]int, 0, days*slots*areas)
		for d := 0; d < days; d++ {
			out = append(out, src[d]...)
		}
		return out
	}
	weather := make([]float64, 0, days*slots)
	for d := 0; d < days; d++ {
		weather = append(weather, tr.Weather[d]...)
	}
	workers, err = predict.NewSeries(days, slots, areas, flatten(tr.WorkerCounts), weather, tr.DayOfWeek)
	if err != nil {
		return nil, nil, err
	}
	tasks, err = predict.NewSeries(days, slots, areas, flatten(tr.TaskCounts), weather, tr.DayOfWeek)
	return workers, tasks, err
}
