package experiments

// Default sweep values from Table 4 (bold = default).
var (
	sweepW     = []int{5000, 10000, 20000, 30000, 40000}
	sweepR     = []int{5000, 10000, 20000, 30000, 40000}
	sweepDr    = []float64{1.0, 1.5, 2.0, 2.5, 3.0}
	sweepGrid  = []int{20, 30, 50, 100, 200}
	sweepSlots = []int{12, 24, 48, 96, 144}
	sweepScale = []int{200000, 400000, 600000, 800000, 1000000}
	sweepFrac  = []float64{0.25, 0.375, 0.5, 0.625, 0.75}

	defaultGridSide = 50
	defaultSlots    = 48
)

// sweep is one synthetic panel of Figures 4–6: n x-axis points, each the
// default configuration with one parameter moved.
type sweep struct {
	id, title, xlabel string
	n                 int
	// set moves point i's parameter and returns its x-axis label.
	set func(o Options, i int, p *point) string
	// omitOPT, when non-empty, drops the OPT series and is the note
	// saying why.
	omitOPT string
}

// The ten synthetic panels, in the paper's order.
var sweeps = []sweep{
	{id: "fig4-w", title: "Fig 4(a,e,i): varying |W|", xlabel: "|W|", n: len(sweepW),
		set: func(o Options, i int, p *point) string {
			p.cfg.NumWorkers = o.scaled(sweepW[i])
			return fmtInt(p.cfg.NumWorkers)
		}},
	{id: "fig4-r", title: "Fig 4(b,f,j): varying |R|", xlabel: "|R|", n: len(sweepR),
		set: func(o Options, i int, p *point) string {
			p.cfg.NumTasks = o.scaled(sweepR[i])
			return fmtInt(p.cfg.NumTasks)
		}},
	{id: "fig4-dr", title: "Fig 4(c,g,k): varying deadline Dr", xlabel: "Dr", n: len(sweepDr),
		set: func(_ Options, i int, p *point) string {
			p.cfg.TaskExpiry = sweepDr[i]
			return fmtF(sweepDr[i])
		}},
	// Cells per side over the same space. Under Scale < 1 the swept
	// resolutions shrink with the populations so per-cell densities match
	// the paper's.
	{id: "fig4-g", title: "Fig 4(d,h,l): varying grid resolution", xlabel: "Grid", n: len(sweepGrid),
		set: func(o Options, i int, p *point) string {
			p.gridSide = o.scaledSide(sweepGrid[i])
			return fmtInt(p.gridSide)
		}},
	// The slot counts are not scaled: slot width relative to the deadlines
	// is the quantity under study.
	{id: "fig5-t", title: "Fig 5(a,e,i): varying time slots", xlabel: "Slots", n: len(sweepSlots),
		set: func(_ Options, i int, p *point) string {
			p.slots = sweepSlots[i]
			return fmtInt(p.slots)
		}},
	// |W| and |R| grow together to one million objects; the paper omits
	// OPT here too ("OPT does not scale with the simultaneous increase of
	// |R| and |W|").
	{id: "fig5-scale", title: "Fig 5(b,f,j): scalability |W|=|R|", xlabel: "|W|=|R|", n: len(sweepScale),
		omitOPT: "OPT omitted (does not scale), as in the paper",
		set: func(o Options, i int, p *point) string {
			p.cfg.NumWorkers = o.scaled(sweepScale[i])
			p.cfg.NumTasks = p.cfg.NumWorkers
			return fmtInt(p.cfg.NumWorkers)
		}},
	// Figure 6 moves the tasks' distributions; the workers' stay fixed.
	{id: "fig6-mu", title: "Fig 6(a,e,i): varying temporal μ", xlabel: "mu", n: len(sweepFrac),
		set: func(_ Options, i int, p *point) string {
			p.cfg.TaskTempMu = sweepFrac[i]
			return fmtF(sweepFrac[i])
		}},
	{id: "fig6-sigma", title: "Fig 6(b,f,j): varying temporal σ", xlabel: "sigma", n: len(sweepFrac),
		set: func(_ Options, i int, p *point) string {
			p.cfg.TaskTempSigma = sweepFrac[i]
			return fmtF(sweepFrac[i])
		}},
	// The distance between the worker and task hotspots.
	{id: "fig6-mean", title: "Fig 6(c,g,k): varying spatial mean", xlabel: "mean", n: len(sweepFrac),
		set: func(_ Options, i int, p *point) string {
			p.cfg.TaskSpatialMean = sweepFrac[i]
			return fmtF(sweepFrac[i])
		}},
	{id: "fig6-cov", title: "Fig 6(d,h,l): varying spatial cov", xlabel: "cov", n: len(sweepFrac),
		set: func(_ Options, i int, p *point) string {
			p.cfg.TaskSpatialCov = sweepFrac[i]
			return fmtF(sweepFrac[i])
		}},
}

// The panels by name, for tests, benchmarks and library callers.
var (
	VaryW           = panel("fig4-w")
	VaryR           = panel("fig4-r")
	VaryDeadline    = panel("fig4-dr")
	VaryGrid        = panel("fig4-g")
	VarySlots       = panel("fig5-t")
	Scalability     = panel("fig5-scale")
	VaryTempMu      = panel("fig6-mu")
	VaryTempSigma   = panel("fig6-sigma")
	VarySpatialMean = panel("fig6-mean")
	VarySpatialCov  = panel("fig6-cov")
)

// panel returns the runner of the sweep with the given id.
func panel(id string) Runner {
	for _, s := range sweeps {
		if s.id == id {
			return s.run
		}
	}
	panic("experiments: no sweep " + id)
}

func init() {
	for _, s := range sweeps {
		register(s.id, s.run)
		if s.id == "fig5-scale" { // Figure 5's city panels follow its synthetic ones
			register("fig5-bj", Beijing)
			register("fig5-hz", Hangzhou)
		}
	}
	register("table5", PredictionTable)
	register("ratio", CompetitiveRatio)
}

// run measures the panel: every row is the default point with the sweep's
// parameter moved, so each derives its own deterministic seed and rows are
// independent (see Result.fill).
func (s sweep) run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if s.omitOPT != "" {
		opts.SkipOPT = true
	}
	res := opts.newResult(s.id, s.title, s.xlabel, opts.algorithms(), s.n)
	if s.omitOPT != "" {
		res.Notes = append(res.Notes, s.omitOPT)
	}
	return res.fill(opts, func(i int) (Row, error) {
		p := opts.defaultPoint()
		x := s.set(opts, i, &p)
		in, g, err := p.build(opts)
		if err != nil {
			return Row{}, err
		}
		return Row{X: x, ByAlgo: runAll(in, g, opts)}, nil
	})
}
