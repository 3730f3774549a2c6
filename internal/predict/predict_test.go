package predict

import (
	"math"
	"testing"

	"ftoa/internal/mathx"
)

// syntheticSeries builds a history with day-of-week structure, a rush-hour
// profile, an area gradient, weather effects and noise — rich enough that
// the learned predictors have signal to find.
func syntheticSeries(t *testing.T, days, slots, areas int, noise float64, seed uint64) *Series {
	t.Helper()
	rng := mathx.NewRNG(seed)
	counts := make([]int, days*slots*areas)
	weather := make([]float64, days*slots)
	for d := 0; d < days; d++ {
		dow := d % 7
		dowF := 1.0
		if dow >= 5 {
			dowF = 0.7
		}
		storm := rng.Float64() * rng.Float64()
		for s := 0; s < slots; s++ {
			hour := float64(s) / float64(slots) * 24
			rush := 1 + 2*math.Exp(-(hour-8)*(hour-8)/8) + 1.5*math.Exp(-(hour-18)*(hour-18)/8)
			weather[d*slots+s] = storm
			for a := 0; a < areas; a++ {
				base := 4 + 6*float64(a%5)/5
				lambda := base * rush * dowF * (1 + 0.5*storm) * math.Exp(rng.NormalMS(0, noise))
				counts[(d*slots+s)*areas+a] = rng.Poisson(lambda)
			}
		}
	}
	s, err := NewSeries(days, slots, areas, counts, weather, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries(0, 4, 4, nil, nil, nil); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := NewSeries(2, 2, 2, make([]int, 7), nil, nil); err == nil {
		t.Error("bad counts length accepted")
	}
	if _, err := NewSeries(2, 2, 2, make([]int, 8), make([]float64, 3), nil); err == nil {
		t.Error("bad weather length accepted")
	}
	if _, err := NewSeries(2, 2, 2, make([]int, 8), nil, []int{1}); err == nil {
		t.Error("bad dow length accepted")
	}
	bad := make([]int, 8)
	bad[3] = -2
	if _, err := NewSeries(2, 2, 2, bad, nil, nil); err == nil {
		t.Error("negative count accepted")
	}
	s, err := NewSeries(2, 2, 2, []int{1, 2, 3, 4, 5, 6, 7, 8}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(1, 0, 1) != 6 {
		t.Errorf("At = %v, want 6", s.At(1, 0, 1))
	}
	if s.SlotTotal(0, 1) != 7 {
		t.Errorf("SlotTotal = %v, want 7", s.SlotTotal(0, 1))
	}
	if s.DayOfWeek(1) != 1 {
		t.Errorf("default dow = %d", s.DayOfWeek(1))
	}
}

func TestMetrics(t *testing.T) {
	actual := []float64{10, 0, 5, 5}   // 2 slots × 2 areas
	predicted := []float64{8, 2, 5, 5} // slot0 off by 4 of 10, slot1 exact
	er := ErrorRate(actual, predicted, 2, 2)
	if math.Abs(er-0.2) > 1e-9 { // (4/10 + 0/10)/2
		t.Errorf("ER = %v, want 0.2", er)
	}
	rmsle := RMSLE(actual, actual, 2, 2)
	if rmsle != 0 {
		t.Errorf("RMSLE of perfect prediction = %v", rmsle)
	}
	if RMSLE(actual, predicted, 2, 2) <= 0 {
		t.Error("RMSLE of imperfect prediction should be positive")
	}
	// Zero-total slots are skipped, not divided by.
	er = ErrorRate([]float64{0, 0, 3, 3}, []float64{1, 1, 3, 3}, 2, 2)
	if er != 0 {
		t.Errorf("ER with zero-total slot = %v, want 0 (slot skipped)", er)
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ErrorRate([]float64{1}, []float64{1, 2}, 1, 2)
}

// allPredictors instantiates the seven Table 5 methods (with test-sized
// hyperparameters for the heavy ones).
func allPredictors() []Predictor {
	g := NewGBRT()
	g.Rounds = 15
	g.MaxSamples = 5000
	nn := NewNeuralNet()
	nn.Epochs = 12
	nn.MaxSamples = 8000
	return []Predictor{NewHA(), NewARIMA(), g, NewPAQ(), NewLR(), nn, NewHPMSI()}
}

func TestAllPredictorsFitAndForecast(t *testing.T) {
	s := syntheticSeries(t, 21, 24, 12, 0.15, 42)
	trainDays := 18
	for _, p := range allPredictors() {
		if err := p.Fit(s, trainDays); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, day := range []int{18, 19, 20} {
			pred := PredictDay(p, s, day)
			for i, v := range pred {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: bad forecast %v at %d", p.Name(), v, i)
				}
			}
			actual := ActualDay(s, day)
			er := ErrorRate(actual, pred, s.Slots, s.Areas)
			if er > 1.5 {
				t.Errorf("%s day %d: ER %.3f implausibly bad", p.Name(), day, er)
			}
		}
	}
}

// TestPredictorsBeatConstantBaseline: every method must beat predicting a
// global constant, otherwise it is not using the structure at all.
func TestPredictorsBeatConstantBaseline(t *testing.T) {
	s := syntheticSeries(t, 21, 24, 12, 0.1, 99)
	trainDays := 18
	day := 19

	// Constant baseline: global training mean per cell.
	total := 0.0
	for d := 0; d < trainDays; d++ {
		for slot := 0; slot < s.Slots; slot++ {
			total += s.SlotTotal(d, slot)
		}
	}
	constant := total / float64(trainDays*s.Slots*s.Areas)
	flat := make([]float64, s.Slots*s.Areas)
	for i := range flat {
		flat[i] = constant
	}
	actual := ActualDay(s, day)
	flatER := ErrorRate(actual, flat, s.Slots, s.Areas)

	for _, p := range allPredictors() {
		if err := p.Fit(s, trainDays); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		pred := PredictDay(p, s, day)
		er := ErrorRate(actual, pred, s.Slots, s.Areas)
		if er >= flatER {
			t.Errorf("%s: ER %.3f not better than constant baseline %.3f", p.Name(), er, flatER)
		}
	}
}

// TestHPMSIBeatsHA: the hierarchical method must improve on plain HA on a
// noisy series — the core claim behind the paper's Table 5 choice.
func TestHPMSIBeatsHA(t *testing.T) {
	s := syntheticSeries(t, 28, 24, 16, 0.35, 7)
	trainDays := 24
	ha := NewHA()
	if err := ha.Fit(s, trainDays); err != nil {
		t.Fatal(err)
	}
	hp := NewHPMSI()
	if err := hp.Fit(s, trainDays); err != nil {
		t.Fatal(err)
	}
	var haER, hpER float64
	for day := trainDays; day < s.Days; day++ {
		actual := ActualDay(s, day)
		haER += ErrorRate(actual, PredictDay(ha, s, day), s.Slots, s.Areas)
		hpER += ErrorRate(actual, PredictDay(hp, s, day), s.Slots, s.Areas)
	}
	if hpER >= haER {
		t.Errorf("HP-MSI ER %.4f not better than HA %.4f", hpER, haER)
	}
}

func TestToCounts(t *testing.T) {
	got := ToCounts([]float64{0.4, 0.6, 2.5, -1, 0})
	want := []int{0, 1, 3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ToCounts = %v, want %v", got, want)
		}
	}
}

func TestPredictorsFitValidation(t *testing.T) {
	s := syntheticSeries(t, 6, 8, 4, 0.1, 3)
	for _, p := range allPredictors() {
		if err := p.Fit(s, 0); err == nil {
			t.Errorf("%s accepted trainDays=0", p.Name())
		}
		if err := p.Fit(s, 100); err == nil {
			t.Errorf("%s accepted trainDays>days", p.Name())
		}
	}
}

func TestLRShrinksLagsOnShortHistory(t *testing.T) {
	s := syntheticSeries(t, 6, 8, 4, 0.1, 5)
	lr := NewLR()
	if err := lr.Fit(s, 5); err != nil {
		t.Fatalf("LR should shrink its lag window: %v", err)
	}
	v := lr.Predict(5, 3, 2)
	if v < 0 || math.IsNaN(v) {
		t.Errorf("LR forecast %v", v)
	}
}

func TestCARTFitsSteps(t *testing.T) {
	// A step function of one feature must be fit exactly by a depth-1 tree.
	var feats [][]float64
	var targets []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		feats = append(feats, []float64{x, 0.5})
		if x < 0.5 {
			targets = append(targets, 1)
		} else {
			targets = append(targets, 5)
		}
	}
	tree := buildCART(feats, targets, 1, 5)
	if tree == nil {
		t.Fatal("nil tree")
	}
	if got := tree.eval([]float64{0.2, 0.5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("left leaf = %v, want 1", got)
	}
	if got := tree.eval([]float64{0.9, 0.5}); math.Abs(got-5) > 1e-9 {
		t.Errorf("right leaf = %v, want 5", got)
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rows := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
	}
	assign := kmeansOf(rows, 2, 20, 1)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("first cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Errorf("second cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Errorf("clusters merged: %v", assign)
	}
}

func TestGBRTLearnsNonlinearSignal(t *testing.T) {
	// GBRT must capture the rush-hour shape better than LR on a strongly
	// non-linear series with weather interaction.
	s := syntheticSeries(t, 24, 24, 8, 0.1, 11)
	trainDays := 20
	lr := NewLR()
	if err := lr.Fit(s, trainDays); err != nil {
		t.Fatal(err)
	}
	g := NewGBRT()
	g.MaxSamples = 8000
	if err := g.Fit(s, trainDays); err != nil {
		t.Fatal(err)
	}
	var lrER, gER float64
	for day := trainDays; day < s.Days; day++ {
		actual := ActualDay(s, day)
		lrER += RMSLE(actual, PredictDay(lr, s, day), s.Slots, s.Areas)
		gER += RMSLE(actual, PredictDay(g, s, day), s.Slots, s.Areas)
	}
	if gER >= lrER*1.1 {
		t.Errorf("GBRT RMSLE %.4f much worse than LR %.4f", gER, lrER)
	}
}
