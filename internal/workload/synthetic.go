// Package workload generates the problem instances of Section 6.1: the
// synthetic workloads of Table 4 (Normal temporal distribution,
// multivariate-Normal spatial distribution over a square space) and the
// multi-day city traces that stand in for the proprietary Didi taxi-calling
// datasets (see City for what the substitute preserves).
//
// Time is measured in slot units of the default configuration (1 unit = one
// 15-minute slot), so the paper's parameters carry over unchanged: the
// horizon is 48 units (12 h), the default worker velocity is 5 space units
// per time unit ("5 grids per slot"), and deadlines Dr ∈ [1, 3] are in the
// same units.
package workload

import (
	"fmt"
	"math"

	"ftoa/internal/geo"
	"ftoa/internal/mathx"
	"ftoa/internal/model"
	"ftoa/internal/timeslot"
)

// Synthetic configures the Table 4 generator. All fractional parameters
// (TempMu, TempSigma, SpatialMean, SpatialCov) follow the paper's
// convention: the effective value is the fraction times the horizon (for
// temporal) or times the space side length (for spatial mean) or times the
// side length as variance (for spatial covariance diagonal).
type Synthetic struct {
	NumWorkers int
	NumTasks   int

	Space   float64 // side length of the square space (default 50)
	Horizon float64 // timeline length in slot units (default 48)

	WorkerPatience float64 // Dw in slot units (default 2)
	TaskExpiry     float64 // Dr in slot units (default 2)
	Velocity       float64 // space units per slot unit (default 5)

	// Worker distributions are fixed in the paper's experiments; task
	// distributions are the swept parameters.
	WorkerTempMu, WorkerTempSigma       float64 // defaults 0.25, 0.25
	TaskTempMu, TaskTempSigma           float64 // defaults 0.5, 0.5
	WorkerSpatialMean, WorkerSpatialCov float64 // defaults 0.25, 0.25
	TaskSpatialMean, TaskSpatialCov     float64 // defaults 0.5, 0.5

	Seed uint64
}

// DefaultSynthetic returns the bold defaults of Table 4.
func DefaultSynthetic() Synthetic {
	return Synthetic{
		NumWorkers:        20000,
		NumTasks:          20000,
		Space:             50,
		Horizon:           48,
		WorkerPatience:    2,
		TaskExpiry:        2,
		Velocity:          5,
		WorkerTempMu:      0.25,
		WorkerTempSigma:   0.25,
		TaskTempMu:        0.5,
		TaskTempSigma:     0.5,
		WorkerSpatialMean: 0.25,
		WorkerSpatialCov:  0.25,
		TaskSpatialMean:   0.5,
		TaskSpatialCov:    0.5,
		Seed:              1,
	}
}

// Validate reports the first configuration problem.
func (c Synthetic) Validate() error {
	switch {
	case c.NumWorkers < 0 || c.NumTasks < 0:
		return fmt.Errorf("workload: negative population")
	case c.Space <= 0:
		return fmt.Errorf("workload: non-positive space %v", c.Space)
	case c.Horizon <= 0:
		return fmt.Errorf("workload: non-positive horizon %v", c.Horizon)
	case c.Velocity <= 0:
		return fmt.Errorf("workload: non-positive velocity %v", c.Velocity)
	case c.WorkerPatience < 0 || c.TaskExpiry < 0:
		return fmt.Errorf("workload: negative deadline")
	}
	return nil
}

// Bounds returns the spatial bounds of the generated instances.
func (c Synthetic) Bounds() geo.Rect { return geo.NewRect(0, 0, c.Space, c.Space) }

// Generate draws one instance. The draw is deterministic in Seed.
func (c Synthetic) Generate() (*model.Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(c.Seed)
	tempRNG := rng.Split()
	spatRNG := rng.Split()

	in := &model.Instance{
		Velocity: c.Velocity,
		Bounds:   c.Bounds(),
		Horizon:  c.Horizon,
	}
	in.Workers = make([]model.Worker, c.NumWorkers)
	for i := range in.Workers {
		in.Workers[i] = model.Worker{
			ID:       i,
			Arrive:   c.sampleTime(tempRNG, c.WorkerTempMu, c.WorkerTempSigma),
			Loc:      c.sampleLoc(spatRNG, c.WorkerSpatialMean, c.WorkerSpatialCov),
			Patience: c.WorkerPatience,
		}
	}
	in.Tasks = make([]model.Task, c.NumTasks)
	for i := range in.Tasks {
		in.Tasks[i] = model.Task{
			ID:      i,
			Release: c.sampleTime(tempRNG, c.TaskTempMu, c.TaskTempSigma),
			Loc:     c.sampleLoc(spatRNG, c.TaskSpatialMean, c.TaskSpatialCov),
			Expiry:  c.TaskExpiry,
		}
	}
	return in, nil
}

// sampleTime draws an arrival time from Normal(muFrac·H, (sigmaFrac·H)²)
// truncated into [0, H).
func (c Synthetic) sampleTime(rng *mathx.RNG, muFrac, sigmaFrac float64) float64 {
	t := rng.TruncNormal(muFrac*c.Horizon, sigmaFrac*c.Horizon, 0, c.Horizon)
	// TruncNormal is inclusive of the upper bound; the timeline is [0, H).
	if t >= c.Horizon {
		t = math.Nextafter(c.Horizon, 0)
	}
	return t
}

// sampleLoc draws a location from the paper's multivariate Normal: mean
// meanFrac·(S, S), covariance diag(covFrac·S, covFrac·S), truncated into
// the square space by rejection (coordinates are independent, so marginal
// truncation is exact).
func (c Synthetic) sampleLoc(rng *mathx.RNG, meanFrac, covFrac float64) geo.Point {
	sigma := math.Sqrt(covFrac * c.Space)
	x := rng.TruncNormal(meanFrac*c.Space, sigma, 0, c.Space)
	y := rng.TruncNormal(meanFrac*c.Space, sigma, 0, c.Space)
	if x >= c.Space {
		x = math.Nextafter(c.Space, 0)
	}
	if y >= c.Space {
		y = math.Nextafter(c.Space, 0)
	}
	return geo.Pt(x, y)
}

// ExpectedCounts returns the exact expected per-(slot, area) counts of the
// configured distributions, integerised so the totals equal NumWorkers and
// NumTasks — the a[i][j] and b[i][j] an ideal predictor would output under
// the i.i.d. model (Definition 5), which is what the synthetic experiments
// feed the guide.
func (c Synthetic) ExpectedCounts(grid *geo.Grid, slots *timeslot.Slotting) (workers, tasks []int) {
	workers = expectedCellCounts(grid, slots, c.NumWorkers,
		c.WorkerTempMu*c.Horizon, c.WorkerTempSigma*c.Horizon,
		c.WorkerSpatialMean*c.Space, math.Sqrt(c.WorkerSpatialCov*c.Space),
		c.Horizon, c.Space)
	tasks = expectedCellCounts(grid, slots, c.NumTasks,
		c.TaskTempMu*c.Horizon, c.TaskTempSigma*c.Horizon,
		c.TaskSpatialMean*c.Space, math.Sqrt(c.TaskSpatialCov*c.Space),
		c.Horizon, c.Space)
	return workers, tasks
}

// expectedCellCounts computes P(slot)·P(col)·P(row) per cell from the
// truncated Normal marginals and rounds to integers summing to total.
func expectedCellCounts(grid *geo.Grid, slots *timeslot.Slotting, total int,
	tMu, tSigma, sMu, sSigma, horizon, space float64) []int {

	slotP := truncNormalBinProbs(tMu, tSigma, 0, horizon, slots.Count)
	colP := truncNormalBinProbs(sMu, sSigma, 0, space, grid.Cols)
	rowP := truncNormalBinProbs(sMu, sSigma, 0, space, grid.Rows)

	weights := make([]float64, slots.Count*grid.NumCells())
	for s := 0; s < slots.Count; s++ {
		for r := 0; r < grid.Rows; r++ {
			for col := 0; col < grid.Cols; col++ {
				weights[s*grid.NumCells()+r*grid.Cols+col] = slotP[s] * rowP[r] * colP[col]
			}
		}
	}
	return mathx.LargestRemainderRound(weights, total)
}

// truncNormalBinProbs splits [lo, hi] into n equal bins and returns the
// probability mass of Normal(mu, sigma²) truncated to [lo, hi] in each bin.
func truncNormalBinProbs(mu, sigma, lo, hi float64, n int) []float64 {
	probs := make([]float64, n)
	if sigma <= 0 {
		// Point mass at mu.
		idx := int((mu - lo) / (hi - lo) * float64(n))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		probs[idx] = 1
		return probs
	}
	cdf := func(x float64) float64 {
		return 0.5 * (1 + math.Erf((x-mu)/(sigma*math.Sqrt2)))
	}
	totalMass := cdf(hi) - cdf(lo)
	if totalMass <= 0 {
		// Degenerate truncation: fall back to the nearest bin.
		return truncNormalBinProbs(mathx.Clamp(mu, lo, hi), 0, lo, hi, n)
	}
	width := (hi - lo) / float64(n)
	prev := cdf(lo)
	for i := 0; i < n; i++ {
		next := cdf(lo + float64(i+1)*width)
		probs[i] = (next - prev) / totalMass
		prev = next
	}
	return probs
}
