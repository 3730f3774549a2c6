package predict

import (
	"fmt"

	"ftoa/internal/mathx"
)

// HA is the historical-average baseline: the forecast for (day, slot, area)
// is the mean count over training days with the same day-of-week at the
// same slot and area; if the training window contains no day with that
// day-of-week, the mean over all training days is used.
type HA struct {
	s         *Series
	trainDays int
}

// NewHA creates the historical-average predictor.
func NewHA() *HA { return &HA{} }

// Name implements Predictor.
func (h *HA) Name() string { return "HA" }

// Fit implements Predictor.
func (h *HA) Fit(s *Series, trainDays int) error {
	if trainDays <= 0 || trainDays > s.Days {
		return fmt.Errorf("predict: HA trainDays %d out of range", trainDays)
	}
	h.s, h.trainDays = s, trainDays
	return nil
}

// Predict implements Predictor.
func (h *HA) Predict(day, slot, area int) float64 {
	dow := h.s.DayOfWeek(clampDay(day, h.s.Days))
	sum, n := 0.0, 0
	for d := 0; d < h.trainDays; d++ {
		if h.s.DayOfWeek(d) == dow {
			sum += h.s.At(d, slot, area)
			n++
		}
	}
	if n == 0 {
		for d := 0; d < h.trainDays; d++ {
			sum += h.s.At(d, slot, area)
			n++
		}
	}
	return sum / float64(n)
}

// LR is the linear-regression baseline: one global linear model over the
// counts of the same slot and area on the 15 most recent days, fit by
// ordinary least squares on the training window.
type LR struct {
	s         *Series
	trainDays int
	lags      int
	coef      []float64 // intercept followed by lag coefficients
}

// NewLR creates the linear-regression predictor with the paper's 15 lags.
func NewLR() *LR { return &LR{lags: 15} }

// Name implements Predictor.
func (l *LR) Name() string { return "LR" }

// Fit implements Predictor.
func (l *LR) Fit(s *Series, trainDays int) error {
	if trainDays < 2 || trainDays > s.Days {
		return fmt.Errorf("predict: LR trainDays %d out of range", trainDays)
	}
	if trainDays <= l.lags {
		// Not enough history for the design matrix: degrade gracefully by
		// shrinking the lag window.
		l.lags = trainDays - 1
	}
	l.s, l.trainDays = s, trainDays
	k := l.lags + 1
	// Accumulate the normal equations XᵀX β = Xᵀy over training samples.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	x := make([]float64, k)
	// Stride areas for very large grids to bound fitting cost; the model
	// is global so a sample subset is statistically fine.
	strideA := 1
	if samples := (trainDays - l.lags) * s.Slots * s.Areas; samples > 400000 {
		strideA = samples / 400000
		if strideA < 1 {
			strideA = 1
		}
	}
	for d := l.lags; d < trainDays; d++ {
		for slot := 0; slot < s.Slots; slot++ {
			for a := 0; a < s.Areas; a += strideA {
				x[0] = 1
				for lag := 1; lag <= l.lags; lag++ {
					x[lag] = s.At(d-lag, slot, a)
				}
				y := s.At(d, slot, a)
				for i := 0; i < k; i++ {
					for j := i; j < k; j++ {
						xtx[i][j] += x[i] * x[j]
					}
					xty[i] += x[i] * y
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += 1e-6 // ridge jitter for stability
	}
	coef, ok := solveCopy(xtx, xty)
	if !ok {
		return fmt.Errorf("predict: LR normal equations singular")
	}
	l.coef = coef
	return nil
}

// Predict implements Predictor.
func (l *LR) Predict(day, slot, area int) float64 {
	v := l.coef[0]
	for lag := 1; lag <= l.lags; lag++ {
		d := clampDay(day-lag, l.s.Days)
		v += l.coef[lag] * l.s.At(d, slot, area)
	}
	return v
}

// PAQ approximates predictive aggregation queries over moving-object
// history: the forecast combines the historical per-slot profile of the
// area with the activity level observed in the 6 latest hours, so a busier
// or quieter day than usual scales the whole profile (the effect
// trajectory-based aggregate prediction achieves).
type PAQ struct {
	s           *Series
	trainDays   int
	windowSlots int
	profile     []float64 // mean count per (slot, area) over training days
}

// NewPAQ creates the predictor with a 6-hour look-back window.
func NewPAQ() *PAQ { return &PAQ{} }

// Name implements Predictor.
func (p *PAQ) Name() string { return "PAQ" }

// Fit implements Predictor.
func (p *PAQ) Fit(s *Series, trainDays int) error {
	if trainDays <= 0 || trainDays > s.Days {
		return fmt.Errorf("predict: PAQ trainDays %d out of range", trainDays)
	}
	p.s, p.trainDays = s, trainDays
	p.windowSlots = s.Slots / 4 // 6 h of a 24 h day
	if p.windowSlots < 1 {
		p.windowSlots = 1
	}
	p.profile = make([]float64, s.Slots*s.Areas)
	for slot := 0; slot < s.Slots; slot++ {
		for a := 0; a < s.Areas; a++ {
			sum := 0.0
			for d := 0; d < trainDays; d++ {
				sum += s.At(d, slot, a)
			}
			p.profile[slot*s.Areas+a] = sum / float64(trainDays)
		}
	}
	return nil
}

// Predict implements Predictor.
func (p *PAQ) Predict(day, slot, area int) float64 {
	// Observed and expected activity over the look-back window, summed
	// over all areas (a per-area window is too sparse to estimate level).
	var obs, exp float64
	d, sl := day, slot
	for k := 0; k < p.windowSlots; k++ {
		sl--
		if sl < 0 {
			sl += p.s.Slots
			d--
		}
		if d < 0 {
			break
		}
		obs += p.s.SlotTotal(d, sl)
		for a := 0; a < p.s.Areas; a++ {
			exp += p.profile[sl*p.s.Areas+a]
		}
	}
	level := 1.0
	if exp > 0 && obs > 0 {
		level = obs / exp
	}
	return p.profile[slot*p.s.Areas+area] * level
}

// ARIMA fits a per-area seasonal ARIMA model: the series is differenced at
// the daily period (lag = Slots) to remove the rush-hour cycle, then an
// ARMA(2,1) is estimated on the seasonal differences with the
// Hannan–Rissanen two-stage procedure. Forecasts are one-step-ahead using
// observed history: x̂_t = x_{t−s} + ARMA forecast of the difference.
type ARIMA struct {
	s         *Series
	trainDays int
	// Per-area coefficients: intercept, ar1, ar2, ma1 over the seasonally
	// differenced series.
	coef [][4]float64
	// capVal caps forecasts per area at 1.5× the largest training count,
	// guarding against unstable coefficient estimates on sparse series.
	capVal []float64
}

// NewARIMA creates the per-area seasonal ARIMA predictor.
func NewARIMA() *ARIMA { return &ARIMA{} }

// Name implements Predictor.
func (a *ARIMA) Name() string { return "ARIMA" }

// value returns the count at flattened (day, slot) index t for one area.
func (a *ARIMA) value(area, t int) float64 {
	day, slot := t/a.s.Slots, t%a.s.Slots
	return a.s.At(day, slot, area)
}

// sdiff returns the seasonal difference x_t − x_{t−Slots}; t must be at
// least Slots.
func (a *ARIMA) sdiff(area, t int) float64 {
	return a.value(area, t) - a.value(area, t-a.s.Slots)
}

// Fit implements Predictor.
func (a *ARIMA) Fit(s *Series, trainDays int) error {
	if trainDays < 2 || trainDays > s.Days {
		return fmt.Errorf("predict: ARIMA trainDays %d out of range", trainDays)
	}
	a.s, a.trainDays = s, trainDays
	n := trainDays * s.Slots
	a.coef = make([][4]float64, s.Areas)
	a.capVal = make([]float64, s.Areas)
	diff := make([]float64, n-s.Slots)
	for area := 0; area < s.Areas; area++ {
		maxSeen := 0.0
		for t := 0; t < n; t++ {
			if v := a.value(area, t); v > maxSeen {
				maxSeen = v
			}
		}
		a.capVal[area] = 1.5*maxSeen + 1
		for t := s.Slots; t < n; t++ {
			diff[t-s.Slots] = a.sdiff(area, t)
		}
		c := fitARMA21(diff)
		// Clamp toward stationarity: sparse series can produce explosive
		// estimates whose one-step forecasts are still wild.
		for i := 1; i < 4; i++ {
			c[i] = clampF(c[i], -0.98, 0.98)
		}
		a.coef[area] = c
	}
	return nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fitARMA21 estimates (intercept, ar1, ar2, ma1) on a differenced series
// via Hannan–Rissanen.
func fitARMA21(x []float64) [4]float64 {
	n := len(x)
	if n < 12 {
		return [4]float64{}
	}
	// Stage 1: AR(4) by least squares to estimate innovations.
	const p0 = 4
	arCoef := fitAR(x, p0)
	resid := make([]float64, n)
	for t := p0; t < n; t++ {
		pred := arCoef[0]
		for k := 1; k <= p0; k++ {
			pred += arCoef[k] * x[t-k]
		}
		resid[t] = x[t] - pred
	}
	// Stage 2: regress x_t on x_{t-1}, x_{t-2}, resid_{t-1}.
	xtx := make([][]float64, 4)
	for i := range xtx {
		xtx[i] = make([]float64, 4)
	}
	xty := make([]float64, 4)
	var f [4]float64
	for t := p0 + 1; t < n; t++ {
		f = [4]float64{1, x[t-1], x[t-2], resid[t-1]}
		for i := 0; i < 4; i++ {
			for j := i; j < 4; j++ {
				xtx[i][j] += f[i] * f[j]
			}
			xty[i] += f[i] * x[t]
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += 1e-6
	}
	coef, ok := solveCopy(xtx, xty)
	if !ok {
		return [4]float64{}
	}
	return [4]float64{coef[0], coef[1], coef[2], coef[3]}
}

// fitAR fits an AR(p) model with intercept by least squares.
func fitAR(x []float64, p int) []float64 {
	k := p + 1
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	row := make([]float64, k)
	for t := p; t < len(x); t++ {
		row[0] = 1
		for j := 1; j <= p; j++ {
			row[j] = x[t-j]
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * x[t]
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += 1e-6
	}
	coef, ok := solveCopy(xtx, xty)
	if !ok {
		return make([]float64, k)
	}
	return coef
}

// Predict implements Predictor: a one-step forecast of the seasonal
// difference added to the same-slot value of the previous day.
func (a *ARIMA) Predict(day, slot, area int) float64 {
	s := a.s.Slots
	t := day*a.s.Slots + slot // target index in the flattened sequence
	if t < s+3 {
		// Not enough history for the seasonal model: persist last value.
		if t == 0 {
			return 0
		}
		return a.value(area, t-1)
	}
	c := a.coef[area]
	y1 := a.sdiff(area, t-1)
	y2 := a.sdiff(area, t-2)
	// One lagged innovation estimate: previous one-step error.
	prevPred := c[0] + c[1]*y2
	if t >= s+4 {
		y3 := a.sdiff(area, t-3)
		prevPred = c[0] + c[1]*y2 + c[2]*y3
	}
	eps := y1 - prevPred
	yHat := c[0] + c[1]*y1 + c[2]*y2 + c[3]*eps
	v := a.value(area, t-s) + yHat
	if v < 0 {
		return 0
	}
	if v > a.capVal[area] {
		return a.capVal[area]
	}
	return v
}

// solveCopy solves ax=b without destroying the caller's slices.
func solveCopy(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	ac := make([][]float64, n)
	for i := range ac {
		ac[i] = append([]float64(nil), a[i]...)
	}
	bc := append([]float64(nil), b...)
	return mathx.SolveLinear(ac, bc)
}
