// Package predict implements the offline spatiotemporal prediction
// component of the paper's two-step framework (Section 3.1.1) and the seven
// representative prediction methods compared in Section 6.3 / Table 5:
//
//	HA      historical average (same slot, area, day-of-week)
//	ARIMA   auto-regressive integrated moving average per area
//	GBRT    gradient-boosted regression trees
//	PAQ     predictive aggregation queries over the 6 latest hours
//	LR      linear regression over the 15 most recent corresponding periods
//	NN      feed-forward neural network with weather/calendar features
//	HP-MSI  hierarchical prediction with multi-similarity inference
//
// plus the two evaluation metrics the paper reports, ER (error rate) and
// RMSLE (root mean squared logarithmic error).
//
// All predictors consume a Series — a per-(day, slot, area) count history
// with weather and day-of-week covariates — and forecast counts for test
// days. Forecasting (day, slot, area) may use everything observed strictly
// before slot `slot` of day `day` (the platform predicts the next slot from
// live and historical data) but never the target itself.
package predict

import (
	"fmt"
	"math"
)

// Series is a historical count tensor over (day, slot-of-day, area) with
// per-slot weather and per-day day-of-week covariates.
type Series struct {
	Days  int
	Slots int // slots per day
	Areas int

	counts  []float64 // day·Slots·Areas + slot·Areas + area
	weather []float64 // day·Slots + slot
	dow     []int     // per day, 0–6
}

// NewSeries validates and assembles a Series. counts is flattened
// [day][slot][area]; weather is flattened [day][slot] and may be nil (all
// clear); dow may be nil (day mod 7).
func NewSeries(days, slots, areas int, counts []int, weather []float64, dow []int) (*Series, error) {
	if days <= 0 || slots <= 0 || areas <= 0 {
		return nil, fmt.Errorf("predict: non-positive dimensions %d×%d×%d", days, slots, areas)
	}
	if len(counts) != days*slots*areas {
		return nil, fmt.Errorf("predict: counts length %d, want %d", len(counts), days*slots*areas)
	}
	if weather != nil && len(weather) != days*slots {
		return nil, fmt.Errorf("predict: weather length %d, want %d", len(weather), days*slots)
	}
	if dow != nil && len(dow) != days {
		return nil, fmt.Errorf("predict: dow length %d, want %d", len(dow), days)
	}
	s := &Series{Days: days, Slots: slots, Areas: areas}
	s.counts = make([]float64, len(counts))
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("predict: negative count at %d", i)
		}
		s.counts[i] = float64(c)
	}
	if weather == nil {
		s.weather = make([]float64, days*slots)
	} else {
		s.weather = append([]float64(nil), weather...)
	}
	if dow == nil {
		s.dow = make([]int, days)
		for d := range s.dow {
			s.dow[d] = d % 7
		}
	} else {
		s.dow = append([]int(nil), dow...)
	}
	return s, nil
}

// At returns the count at (day, slot, area).
func (s *Series) At(day, slot, area int) float64 {
	return s.counts[(day*s.Slots+slot)*s.Areas+area]
}

// Weather returns the weather intensity at (day, slot).
func (s *Series) Weather(day, slot int) float64 { return s.weather[day*s.Slots+slot] }

// DayOfWeek returns the day-of-week (0–6) of day.
func (s *Series) DayOfWeek(day int) int { return s.dow[day] }

// SlotTotal returns the count summed over areas at (day, slot).
func (s *Series) SlotTotal(day, slot int) float64 {
	base := (day*s.Slots + slot) * s.Areas
	t := 0.0
	for a := 0; a < s.Areas; a++ {
		t += s.counts[base+a]
	}
	return t
}

// Predictor is one of the Section 6.3 prediction methods.
type Predictor interface {
	// Name returns the paper's label for the method.
	Name() string
	// Fit trains on days [0, trainDays) of s and retains what it needs.
	Fit(s *Series, trainDays int) error
	// Predict forecasts the count at (day, slot, area). Implementations
	// may consult observed history before (day, slot) but not the target.
	Predict(day, slot, area int) float64
}

// PredictDay runs p over every (slot, area) of one day and returns the
// flattened forecasts, clamped to be non-negative.
func PredictDay(p Predictor, s *Series, day int) []float64 {
	out := make([]float64, s.Slots*s.Areas)
	for slot := 0; slot < s.Slots; slot++ {
		for a := 0; a < s.Areas; a++ {
			v := p.Predict(day, slot, a)
			if v < 0 || math.IsNaN(v) {
				v = 0
			}
			out[slot*s.Areas+a] = v
		}
	}
	return out
}

// ToCounts rounds forecasts to integer counts for guide construction.
func ToCounts(pred []float64) []int {
	out := make([]int, len(pred))
	for i, v := range pred {
		if v > 0 {
			out[i] = int(v + 0.5)
		}
	}
	return out
}

// Forecast is the framework's offline prediction step: it fits HP-MSI on
// every day of each side's history but the last, once per side, and
// returns the rounded count forecasts of days, concatenated in the order
// given — the per-(slot, area) counts a guide is built from.
func Forecast(workers, tasks *Series, days []int) (wPred, tPred []int, err error) {
	side := func(s *Series) ([]int, error) {
		p := NewHPMSI()
		if err := p.Fit(s, s.Days-1); err != nil {
			return nil, err
		}
		pred := make([]int, 0, len(days)*s.Slots*s.Areas)
		for _, d := range days {
			pred = append(pred, ToCounts(PredictDay(p, s, d))...)
		}
		return pred, nil
	}
	if wPred, err = side(workers); err != nil {
		return nil, nil, err
	}
	if tPred, err = side(tasks); err != nil {
		return nil, nil, err
	}
	return wPred, tPred, nil
}

// ActualDay extracts the realized counts of one day, flattened like
// PredictDay's output.
func ActualDay(s *Series, day int) []float64 {
	out := make([]float64, s.Slots*s.Areas)
	for slot := 0; slot < s.Slots; slot++ {
		for a := 0; a < s.Areas; a++ {
			out[slot*s.Areas+a] = s.At(day, slot, a)
		}
	}
	return out
}

// ErrorRate is the paper's ER metric:
//
//	ER = (1/t) Σ_i [ Σ_j |a_ij − â_ij| / Σ_j a_ij ]
//
// over t slots and g areas. Slots whose actual total is zero are skipped
// (the ratio is undefined there); the average is over the remaining slots.
func ErrorRate(actual, predicted []float64, slots, areas int) float64 {
	if len(actual) != slots*areas || len(predicted) != slots*areas {
		panic("predict: metric length mismatch")
	}
	sum := 0.0
	used := 0
	for i := 0; i < slots; i++ {
		var num, den float64
		for j := 0; j < areas; j++ {
			a := actual[i*areas+j]
			p := predicted[i*areas+j]
			num += math.Abs(a - p)
			den += a
		}
		if den > 0 {
			sum += num / den
			used++
		}
	}
	if used == 0 {
		return 0
	}
	return sum / float64(used)
}

// RMSLE is the paper's root mean squared logarithmic error:
//
//	RMSLE = (1/t) Σ_i sqrt( (1/g) Σ_j (log(a_ij+1) − log(â_ij+1))² )
func RMSLE(actual, predicted []float64, slots, areas int) float64 {
	if len(actual) != slots*areas || len(predicted) != slots*areas {
		panic("predict: metric length mismatch")
	}
	sum := 0.0
	for i := 0; i < slots; i++ {
		var sq float64
		for j := 0; j < areas; j++ {
			d := math.Log(actual[i*areas+j]+1) - math.Log(math.Max(predicted[i*areas+j], 0)+1)
			sq += d * d
		}
		sum += math.Sqrt(sq / float64(areas))
	}
	return sum / float64(slots)
}

// clampDay limits a day index into the valid range.
func clampDay(d, days int) int {
	if d < 0 {
		return 0
	}
	if d >= days {
		return days - 1
	}
	return d
}
