// Command ftoa-sim runs one FTOA simulation with explicit parameters: it
// generates a synthetic instance (Table 4 parameterisation), builds the
// offline guide from the generating distribution's expected counts, and
// replays the instance under a chosen algorithm (or all of them).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftoa"
)

func main() {
	var (
		workers  = flag.Int("workers", 20000, "number of workers |W|")
		tasks    = flag.Int("tasks", 20000, "number of tasks |R|")
		dr       = flag.Float64("dr", 2.0, "task deadline Dr in slot units")
		dw       = flag.Float64("dw", 2.0, "worker patience Dw in slot units")
		gridSide = flag.Int("grid", 50, "prediction grid cells per side")
		slots    = flag.Int("slots", 48, "number of time slots")
		velocity = flag.Float64("velocity", 5, "worker velocity, space units per slot unit")
		space    = flag.Float64("space", 50, "space side length")
		taskMu   = flag.Float64("task-mu", 0.5, "tasks' temporal mean fraction")
		taskMean = flag.Float64("task-mean", 0.5, "tasks' spatial mean fraction")
		seed     = flag.Uint64("seed", 1, "random seed")
		algo     = flag.String("algo", "all", "algorithm: simplegreedy|gr|polar|polar-op|opt|all")
		mode     = flag.String("mode", "assume-guide", "validation: assume-guide or strict")
		grWindow = flag.Float64("gr-window", 0.25, "GR batch window in slot units")
	)
	flag.Parse()

	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers = *workers
	cfg.NumTasks = *tasks
	cfg.TaskExpiry = *dr
	cfg.WorkerPatience = *dw
	cfg.Velocity = *velocity
	cfg.Space = *space
	cfg.TaskTempMu = *taskMu
	cfg.TaskSpatialMean = *taskMean
	cfg.Seed = *seed

	in, err := cfg.Generate()
	if err != nil {
		fail(err)
	}
	grid := ftoa.NewGrid(cfg.Bounds(), *gridSide, *gridSide)
	sl := ftoa.NewSlotting(cfg.Horizon, *slots)
	wc, tc := cfg.ExpectedCounts(grid, sl)
	g, err := ftoa.BuildGuide(ftoa.NewGuideConfig(grid, sl, cfg.Velocity, cfg.WorkerPatience, cfg.TaskExpiry), wc, tc)
	if err != nil {
		fail(err)
	}

	m := ftoa.AssumeGuide
	if *mode == "strict" {
		m = ftoa.Strict
	}
	eng := ftoa.NewEngine(in, m)

	run := func(alg ftoa.Algorithm) {
		res := eng.Run(alg)
		fmt.Printf("%-13s matched %6d  time %12v  rejected %d/%d attempts\n",
			res.Algorithm, res.Matching.Size(), res.Elapsed.Round(1000), res.Rejected, res.Attempted)
	}
	want := strings.ToLower(*algo)
	fmt.Printf("instance: |W|=%d |R|=%d Dr=%.2f grid=%dx%d slots=%d mode=%s; guide |E*|=%d\n",
		len(in.Workers), len(in.Tasks), *dr, *gridSide, *gridSide, *slots, m, g.MatchedPairs)
	if want == "simplegreedy" || want == "all" {
		run(ftoa.NewSimpleGreedy())
	}
	if want == "gr" || want == "all" {
		run(ftoa.NewGR(*grWindow))
	}
	if want == "polar" || want == "all" {
		run(ftoa.NewPOLAR(g))
	}
	if want == "polar-op" || want == "all" {
		run(ftoa.NewPOLAROP(g))
	}
	if want == "opt" || want == "all" {
		opt := ftoa.OPT(in, ftoa.OPTOptions{MaxCandidates: 64})
		fmt.Printf("%-13s matched %6d  (offline upper bound)\n", "OPT", opt.Size())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
