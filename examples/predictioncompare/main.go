// Command predictioncompare reproduces the spirit of the paper's Table 5 on
// a generated city history: it fits all seven spatiotemporal prediction
// methods (HA, ARIMA, GBRT, PAQ, LR, NN, HP-MSI) on the training days and
// reports ER and RMSLE on the held-out days, for both the demand (task) and
// supply (worker) series.
package main

import (
	"flag"
	"fmt"
	"os"

	"ftoa"
)

func main() {
	var (
		perDay = flag.Int("per-day", 8000, "objects per day per side")
		days   = flag.Int("days", 28, "history length in days")
		test   = flag.Int("test-days", 3, "held-out evaluation days")
	)
	flag.Parse()

	city := ftoa.Hangzhou()
	city.WorkersPerDay = *perDay
	city.TasksPerDay = *perDay
	city.Days = *days
	city.Cols, city.Rows = 12, 16
	tr, err := city.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	areas := tr.Grid.NumCells()
	trainDays := city.Days - *test

	wSeries, tSeries, err := tr.Series()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sides := []struct {
		name string
		s    *ftoa.Series
	}{
		{"demand", tSeries},
		{"supply", wSeries},
	}

	predictors := []func() ftoa.Predictor{
		ftoa.NewHA, ftoa.NewARIMA, ftoa.NewGBRT, ftoa.NewPAQ,
		ftoa.NewLR, ftoa.NewNeuralNet, ftoa.NewHPMSI,
	}

	fmt.Printf("city history: %d days × %d slots × %d areas, train on %d days, evaluate on %d\n\n",
		city.Days, city.SlotsPerDay, areas, trainDays, *test)
	fmt.Printf("%-8s", "method")
	for _, side := range sides {
		fmt.Printf("  %8s-RMSLE %8s-ER", side.name, side.name)
	}
	fmt.Println()
	for _, mk := range predictors {
		name := mk().Name()
		fmt.Printf("%-8s", name)
		for _, side := range sides {
			p := mk()
			if err := p.Fit(side.s, trainDays); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			var rmsle, er float64
			for day := trainDays; day < city.Days; day++ {
				actual := ftoa.ActualDay(side.s, day)
				pred := ftoa.PredictDay(p, side.s, day)
				rmsle += ftoa.RMSLE(actual, pred, city.SlotsPerDay, areas)
				er += ftoa.ErrorRate(actual, pred, city.SlotsPerDay, areas)
			}
			fmt.Printf("  %14.3f %11.3f", rmsle/float64(*test), er/float64(*test))
		}
		fmt.Println()
	}
	fmt.Println("\nlower is better for both metrics; the paper selects HP-MSI for its framework.")
}
