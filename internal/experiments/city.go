package experiments

import (
	"fmt"
	"strings"

	"ftoa/internal/guide"
	"ftoa/internal/model"
	"ftoa/internal/predict"
	"ftoa/internal/workload"
)

// cityDrSweep is the Dr sweep of Figure 5(c,d,g,h,k,l) / Table 3.
var cityDrSweep = []float64{0.5, 0.75, 1.0, 1.25, 1.5}

// scaleCity shrinks a city configuration for scaled-down runs: populations
// scale linearly and the spatial grid by the square root, so per-cell
// densities — and thus prediction difficulty — stay at paper levels (see
// Options.scaledSide). Slot width is untouched: it must stay comparable to
// the deadlines under study.
func scaleCity(city workload.City, opts Options) workload.City {
	city.WorkersPerDay = opts.scaled(city.WorkersPerDay)
	city.TasksPerDay = opts.scaled(city.TasksPerDay)
	origCols := city.Cols
	city.Cols = opts.scaledSide(city.Cols)
	city.Rows = opts.scaledSide(city.Rows)
	// The city's space *is* its grid, so shrinking the grid shrinks every
	// distance; velocity must shrink by the same factor or the reach
	// radius Dr·v would cover the whole scaled city and wait-in-place
	// baselines would trivially match everything.
	city.Velocity *= float64(city.Cols) / float64(origCols)
	city.Seed += opts.Seed
	return city
}

// Beijing reproduces Figure 5(c,g,k): the Beijing trace with Dr varied.
func Beijing(opts Options) (*Result, error) {
	return cityExperiment("fig5-bj", workload.Beijing(), opts)
}

// Hangzhou reproduces Figure 5(d,h,l): the Hangzhou trace with Dr varied.
func Hangzhou(opts Options) (*Result, error) {
	return cityExperiment("fig5-hz", workload.Hangzhou(), opts)
}

// cityExperiment runs the real-data pipeline end to end: generate the
// multi-day trace, train the framework's predictor (HP-MSI, the Table 5
// winner) on the history, build the guide from its forecasts for the test
// day, and replay the test day under every algorithm for each Dr.
func cityExperiment(id string, city workload.City, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	city = scaleCity(city, opts)
	tr, err := city.Generate()
	if err != nil {
		return nil, err
	}
	testDay := city.Days - 1
	wSeries, tSeries, err := tr.Series()
	if err != nil {
		return nil, err
	}
	wPred, tPred, err := predict.Forecast(wSeries, tSeries, []int{testDay})
	if err != nil {
		return nil, err
	}

	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	res := opts.newResult(id, fmt.Sprintf("Fig 5 (%s trace): varying deadline Dr", city.Name),
		"Dr", opts.algorithms(), len(cityDrSweep))
	res.Notes = append(res.Notes,
		fmt.Sprintf("%s substitute trace; HP-MSI forecasts %d workers and %d tasks for the test day",
			city.Name, sum(wPred), sum(tPred)))
	// Each Dr row rebuilds its instance and guide from the shared read-only
	// trace and forecasts, so rows parallelise exactly like the synthetic
	// sweeps (Trace.Instance derives a fresh RNG per call).
	return res.fill(opts, func(i int) (Row, error) {
		dr := cityDrSweep[i]
		var in *model.Instance
		var g *guide.Guide
		var err error
		opts.pool.do(func() {
			if in, err = tr.Instance(testDay, dr); err != nil {
				return
			}
			g, err = guide.Build(guide.NewConfig(tr.Grid, tr.Slots, city.Velocity, city.WorkerPatience, dr), wPred, tPred)
		})
		if err != nil {
			return Row{}, err
		}
		return Row{X: fmtF(dr), ByAlgo: runAll(in, g, opts)}, nil
	})
}

// PredictionTable reproduces Table 5: the seven prediction methods
// evaluated with RMSLE and ER on both cities, for tasks (customers) and
// workers (taxis). The framework adopts the method with the best overall
// scores (HP-MSI in the paper).
func PredictionTable(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "table5",
		Title:  "Table 5: prediction evaluation on the city traces",
		XLabel: "Method",
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "Method")
	for _, col := range []string{"BJ-task", "HZ-task", "BJ-worker", "HZ-worker"} {
		fmt.Fprintf(&sb, "  %9s-RMSLE %9s-ER", col, col)
	}
	sb.WriteByte('\n')

	type cityEval struct {
		name             string
		wSeries, tSeries *predict.Series
		trainDays        int
	}
	var cities []cityEval
	for _, cfg := range []workload.City{workload.Beijing(), workload.Hangzhou()} {
		cfg = scaleCity(cfg, opts)
		tr, err := cfg.Generate()
		if err != nil {
			return nil, err
		}
		w, t, err := tr.Series()
		if err != nil {
			return nil, err
		}
		cities = append(cities, cityEval{name: cfg.Name, wSeries: w, tSeries: t, trainDays: cfg.Days - 3})
	}

	makePredictor := func(name string) predict.Predictor {
		switch name {
		case "HA":
			return predict.NewHA()
		case "ARIMA":
			return predict.NewARIMA()
		case "GBRT":
			return predict.NewGBRT()
		case "PAQ":
			return predict.NewPAQ()
		case "LR":
			return predict.NewLR()
		case "NN":
			return predict.NewNeuralNet()
		default:
			return predict.NewHPMSI()
		}
	}

	methods := []string{"HA", "ARIMA", "GBRT", "PAQ", "LR", "NN", "HP-MSI"}
	for _, m := range methods {
		fmt.Fprintf(&sb, "%-8s", m)
		// Column order mirrors Table 5: task side both cities, then worker
		// side both cities.
		for _, side := range []string{"task", "worker"} {
			for _, c := range cities {
				s := c.tSeries
				if side == "worker" {
					s = c.wSeries
				}
				p := makePredictor(m)
				if err := p.Fit(s, c.trainDays); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", m, c.name, err)
				}
				var rmsle, er float64
				n := 0
				for day := c.trainDays; day < s.Days; day++ {
					actual := predict.ActualDay(s, day)
					pred := predict.PredictDay(p, s, day)
					rmsle += predict.RMSLE(actual, pred, s.Slots, s.Areas)
					er += predict.ErrorRate(actual, pred, s.Slots, s.Areas)
					n++
				}
				fmt.Fprintf(&sb, "  %15.3f %12.3f", rmsle/float64(n), er/float64(n))
			}
		}
		sb.WriteByte('\n')
	}
	res.Notes = append(res.Notes, "columns: task side (Beijing, Hangzhou) then worker side (Beijing, Hangzhou)")
	res.Custom = sb.String()
	return res, nil
}
