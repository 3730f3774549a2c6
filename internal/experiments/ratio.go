package experiments

import (
	"fmt"
	"math"
	"strings"

	"ftoa/internal/core"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// CompetitiveRatio empirically probes Theorems 1 and 2: under the i.i.d.
// model (instances redrawn from the same spatiotemporal distributions the
// guide was built from), POLAR's matching size should stay above ≈ 0.4·OPT
// and POLAR-OP's above ≈ 0.47·OPT with high probability. Matching is
// counted under the paper's analysis assumption (AssumeGuide mode), which
// is what the theorems bound.
func CompetitiveRatio(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const trials = 12

	cfg := workload.DefaultSynthetic()
	// The instance size is pinned rather than scaled: the concentration
	// bounds behind Theorems 1–2 have ±ε(m+n) slop, so very small
	// populations make the empirical ratio meaningless. 2000 objects keep
	// each trial fast while the ratio is already concentrated.
	cfg.NumWorkers = 2000
	cfg.NumTasks = 2000

	// Match the spatial density to the reduced population (see
	// Options.scaledSide): the grid side shrinks with the square root of
	// the effective population ratio against the 20k paper default.
	side := int(float64(defaultGridSide)*math.Sqrt(float64(cfg.NumWorkers)/20000.0) + 0.5)
	if side < 4 {
		side = 4
	}
	g, err := point{cfg: cfg, gridSide: side, slots: defaultSlots}.guide(false)
	if err != nil {
		return nil, err
	}

	// Trials are independent redraws, so they fan out across the worker
	// pool; per-trial ratios land in an indexed slice and are reduced in
	// trial order, keeping min and mean bit-identical to a sequential run.
	type trialRatio struct {
		polar, polarOP float64
		valid          bool
	}
	ratios := make([]trialRatio, trials)
	err = forEach(opts, trials, func(trial int) error {
		tcfg := cfg
		tcfg.Seed = uint64(trial+1)*7919 + opts.Seed
		var in *model.Instance
		var err error
		opts.pool.do(func() { in, err = tcfg.Generate() })
		if err != nil {
			return err
		}
		m := runCell(in, sim.AssumeGuide, []sim.Algorithm{core.NewPOLAR(g), core.NewPOLAROP(g)}, true, opts)
		opt := m[AlgoOPT].MatchingSize
		if opt == 0 {
			return nil
		}
		ratios[trial] = trialRatio{
			polar:   float64(m[AlgoPOLAR].MatchingSize) / float64(opt),
			polarOP: float64(m[AlgoPOLAROP].MatchingSize) / float64(opt),
			valid:   true,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type stats struct {
		min, sum float64
	}
	agg := map[string]*stats{
		AlgoPOLAR:   {min: 1},
		AlgoPOLAROP: {min: 1},
	}
	for _, r := range ratios {
		if !r.valid {
			continue
		}
		st := agg[AlgoPOLAR]
		st.sum += r.polar
		if r.polar < st.min {
			st.min = r.polar
		}
		st = agg[AlgoPOLAROP]
		st.sum += r.polarOP
		if r.polarOP < st.min {
			st.min = r.polarOP
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %10s %18s\n", "Algorithm", "min", "mean", "theoretical bound")
	for _, row := range []struct {
		name  string
		bound string
	}{
		{AlgoPOLAR, "(1-1/e)^2 = 0.40"},
		{AlgoPOLAROP, "0.47"},
	} {
		st := agg[row.name]
		fmt.Fprintf(&sb, "%-10s %10.3f %10.3f %18s\n", row.name, st.min, st.sum/trials, row.bound)
	}
	return &Result{
		ID:     "ratio",
		Title:  "Empirical competitive ratio under the i.i.d. model (Theorems 1-2)",
		XLabel: "Algorithm",
		Notes: []string{
			fmt.Sprintf("%d redraws from the guide's distributions, AssumeGuide counting", trials),
		},
		Custom: sb.String(),
	}, nil
}
