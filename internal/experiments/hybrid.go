package experiments

import (
	"ftoa/internal/core"
	"ftoa/internal/guide"
	"ftoa/internal/sim"
)

func init() {
	register("ablation-hybrid", HybridAblation)
	register("ablation-mincost", MinCostAblation)
	register("ablation-strict", StrictGapAblation)
}

// HybridAblation compares the POLAR-OP+Greedy extension (see core.Hybrid)
// against its two parents over the deadline sweep, under the honest Strict
// validation where the guide's prediction error actually bites. This is an
// extension beyond the paper, motivated by the gap ablation-strict measures.
func HybridAblation(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := opts.newResult("ablation-hybrid", "Extension: POLAR-OP with greedy fallback (strict validation)",
		"Dr", []string{AlgoSimpleGreedy, AlgoPOLAROP, "POLAR-OP+G"}, len(sweepDr))
	return res.fill(opts, func(i int) (Row, error) {
		p := opts.defaultPoint()
		p.cfg.TaskExpiry = sweepDr[i]
		in, g, err := p.build(opts)
		if err != nil {
			return Row{}, err
		}
		return Row{X: fmtF(sweepDr[i]), ByAlgo: runCell(in, sim.Strict, []sim.Algorithm{
			core.NewSimpleGreedy(), core.NewPOLAROP(g), core.NewHybrid(g),
		}, false, opts)}, nil
	})
}

// MinCostAblation quantifies the paper's note after Algorithm 1: replacing
// max-flow with min-cost max-flow yields a guide of the same cardinality
// but lower total travel, which shows up as fewer strict-mode rejections
// and shorter pickup distances.
func MinCostAblation(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	variants := []string{"max-flow", "min-cost"}
	res := opts.newResult("ablation-mincost", "Ablation: max-flow vs min-cost guide (strict validation)",
		"Guide", []string{AlgoPOLAROP}, len(variants))
	res.Notes = append(res.Notes,
		"the Memory column here reports the guide's total planned travel time, not MB")
	res.noMemory = false // the column is a property of the guide, known on either path
	p := opts.defaultPoint()
	in, err := p.cfg.Generate()
	if err != nil {
		return nil, err
	}
	return res.fill(opts, func(i int) (Row, error) {
		var g *guide.Guide
		var err error
		opts.pool.do(func() { g, err = p.guide(variants[i] == "min-cost") })
		if err != nil {
			return Row{}, err
		}
		m := runCell(in, sim.Strict, []sim.Algorithm{core.NewPOLAROP(g)}, false, opts)[AlgoPOLAROP]
		m.MemoryMB = g.TravelCost
		return Row{X: variants[i], ByAlgo: map[string]Metric{AlgoPOLAROP: m}}, nil
	})
}

// StrictGapAblation measures the gap between the paper's counting
// (AssumeGuide) and the honest platform semantics (Strict) for the guided
// algorithms — the quantity the paper's Lemma-1 assumption hides.
func StrictGapAblation(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	modes := []sim.Mode{sim.AssumeGuide, sim.Strict}
	res := opts.newResult("ablation-strict", "Ablation: paper counting vs strict validation",
		"Mode", []string{AlgoSimpleGreedy, AlgoPOLAR, AlgoPOLAROP}, len(modes))
	in, g, err := opts.defaultPoint().build(opts)
	if err != nil {
		return nil, err
	}
	return res.fill(opts, func(i int) (Row, error) {
		return Row{X: modes[i].String(), ByAlgo: runCell(in, modes[i], []sim.Algorithm{
			core.NewSimpleGreedy(), core.NewPOLAR(g), core.NewPOLAROP(g),
		}, false, opts)}, nil
	})
}
