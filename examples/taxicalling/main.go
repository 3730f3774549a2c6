// Command taxicalling runs the full two-step framework on a synthetic
// taxi-calling city (the workload standing in for the paper's Didi traces):
// it generates a multi-week history with rush hours, commute asymmetry,
// weekday and weather structure, trains the HP-MSI predictor on the
// history, builds the offline guide from its forecasts for the final day,
// and replays that day under every online algorithm.
//
// Flags shrink or grow the scenario; the default runs a small city in a
// few seconds.
package main

import (
	"flag"
	"fmt"
	"os"

	"ftoa"
)

func main() {
	var (
		perDay = flag.Int("per-day", 6000, "workers and tasks per day")
		days   = flag.Int("days", 21, "history length in days")
		dr     = flag.Float64("dr", 1.0, "task deadline Dr in 15-minute slots")
	)
	flag.Parse()

	city := ftoa.Beijing()
	city.WorkersPerDay = *perDay
	city.TasksPerDay = *perDay
	city.Days = *days
	// A smaller city than the paper's 20×30 grid, with velocity scaled in
	// proportion so relative reach is preserved; per-cell density stays at
	// the paper's ≈0.9 objects per (slot, area) cell.
	city.Cols, city.Rows = 8, 12
	city.Velocity = 2

	fmt.Printf("generating %d days of %s-like history (%d workers, %d tasks per day)...\n",
		city.Days, city.Name, city.WorkersPerDay, city.TasksPerDay)
	tr, err := city.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Train the paper's chosen predictor on all but the last day.
	testDay := city.Days - 1
	areas := tr.Grid.NumCells()
	wSeries, tSeries, err := tr.Series()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	forecast := func(s *ftoa.Series, label string) []int {
		p := ftoa.NewHPMSI()
		if err := p.Fit(s, testDay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pred := ftoa.PredictDay(p, s, testDay)
		actual := ftoa.ActualDay(s, testDay)
		fmt.Printf("HP-MSI %s forecast: ER %.3f, RMSLE %.3f\n", label,
			ftoa.ErrorRate(actual, pred, city.SlotsPerDay, areas),
			ftoa.RMSLE(actual, pred, city.SlotsPerDay, areas))
		return ftoa.ToCounts(pred)
	}
	wPred := forecast(wSeries, "supply")
	tPred := forecast(tSeries, "demand")

	g, err := ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           tr.Grid,
		Slots:          tr.Slots,
		Velocity:       city.Velocity,
		WorkerPatience: city.WorkerPatience,
		TaskExpiry:     *dr,
		RepSlack:       tr.Slots.Width() / 2,
	}, wPred, tPred)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("offline guide: %d pre-matched pairs\n\n", g.MatchedPairs)

	in, err := tr.Instance(testDay, *dr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("test day: %d taxis, %d requests, Dr = %.2f slots\n\n",
		len(in.Workers), len(in.Tasks), *dr)

	eng := ftoa.NewEngine(in, ftoa.AssumeGuide)
	fmt.Printf("%-13s %10s %12s\n", "algorithm", "matched", "time")
	for _, alg := range []ftoa.Algorithm{
		ftoa.NewSimpleGreedy(),
		ftoa.NewGR(0.25),
		ftoa.NewPOLAR(g),
		ftoa.NewPOLAROP(g),
	} {
		res := eng.Run(alg)
		fmt.Printf("%-13s %10d %12s\n", res.Algorithm, res.Matching.Size(), res.Elapsed.Round(1000))
	}
	opt := ftoa.OPT(in, ftoa.OPTOptions{MaxCandidates: 64})
	fmt.Printf("%-13s %10d %12s\n", "OPT", opt.Size(), "(offline)")
}
