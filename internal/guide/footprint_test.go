package guide

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/mathx"
	"ftoa/internal/timeslot"
)

// poissonCounts draws n Poisson(mean) counts by Knuth's product method.
func poissonCounts(rng *mathx.RNG, n int, mean float64) []int {
	out := make([]int, n)
	for i := range out {
		limit, p := math.Exp(-mean), 1.0
		for {
			p *= rng.Float64()
			if p <= limit {
				break
			}
			out[i]++
		}
	}
	return out
}

// serveShape has the geometry of the guide ftoa-serve builds under the
// committed benchmark's wire-batch workload — 20×20 areas × 32 slots over
// a 64 s day, at most 128 edges per worker cell — but not that guide: its
// counts are Poisson draws around 5 per cell and side rather than an
// HP-MSI forecast, and its edges keep NewConfig's slot/2 slack where the
// server uses 0. The served guide is pinned by internal/serve's
// TestServeShapeGuideGolden and timed by its BenchmarkServeGuideBoot.
func serveShape() (Config, []int, []int) {
	const side, slots = 20, 32
	rng := mathx.NewRNG(14)
	sl := timeslot.New(64, slots)
	return Config{
		Grid:            geo.NewGrid(geo.NewRect(0, 0, 100, 100), side, side),
		Slots:           sl,
		Velocity:        2,
		WorkerPatience:  4,
		TaskExpiry:      2,
		MaxEdgesPerCell: 128,
		RepSlack:        sl.Width() / 2,
	}, poissonCounts(rng, slots*side*side, 5), poissonCounts(rng, slots*side*side, 5)
}

func BenchmarkGuideBuildServeShape(b *testing.B) {
	cfg, wc, tc := serveShape()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Build(cfg, wc, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// heapLive returns the bytes reachable after a full collection.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBuildAllocationCeiling pins the construction transient: everything
// Build ever allocates must stay within 1.5× of what is reachable at the
// moment it returns (the guide plus the solved network). Growing any of
// the large arrays by append would double that.
func TestBuildAllocationCeiling(t *testing.T) {
	cfg, wc, tc := serveShape()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Build(cfg, wc, tc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	cumulative := after.TotalAlloc - before.TotalAlloc
	runtime.KeepAlive(g)
	g = nil

	// The same phases by hand, holding the network, to see what is live
	// when Build returns.
	base := heapLive()
	g = &Guide{Cfg: cfg}
	g.WorkerCells, g.workerID, _ = collectCells(wc, cfg.Grid.NumCells())
	g.TaskCells, g.taskID, _ = collectCells(tc, cfg.Grid.NumCells())
	net, err := g.network()
	if err != nil {
		t.Fatal(err)
	}
	net.MaxFlowDinic(net.NumNodes()-2, net.NumNodes()-1)
	g.layout(net)
	live := heapLive() - base
	runtime.KeepAlive(g)
	runtime.KeepAlive(net)

	t.Logf("Build allocated %.1f MB in total, %.1f MB live at return (%.2f×), %d edges",
		float64(cumulative)/(1<<20), float64(live)/(1<<20), float64(cumulative)/float64(live), net.NumEdges())
	if float64(cumulative) > 1.5*float64(live) {
		t.Errorf("Build allocated %d bytes for %d live at return: more than 1.5×", cumulative, live)
	}
}

// layoutHash fingerprints everything an online algorithm reads from a
// guide.
func layoutHash(g *Guide) string {
	h := fnv.New64a()
	for _, cells := range [][]CellPlan{g.WorkerCells, g.TaskCells} {
		for _, c := range cells {
			fmt.Fprintf(h, "%v %d %d %v|", c.Key, c.Count, c.Matched, c.Runs)
		}
	}
	fmt.Fprintf(h, "%d %v %v %v", g.MatchedPairs, math.Float64bits(g.TravelCost), g.workerID, g.taskID)
	return fmt.Sprintf("%x", h.Sum64())
}

// TestBuildLayoutGolden pins the pair layout bit for bit, so a change in
// edge order, solver traversal or run order shows up here before it shows
// up as a different matching. The first two networks need more than one
// Dinic phase, so their layouts are Dinic's run to completion; the
// min-cost one is MinCostMaxFlow's.
func TestBuildLayoutGolden(t *testing.T) {
	for _, tc := range []struct {
		side, slots, maxEdges  int
		mean                   float64
		minCost                bool
		horizon, patience, exp float64
		pairs                  int
		hash                   string
	}{
		{side: 12, slots: 16, maxEdges: 16, mean: 4, horizon: 64, patience: 8, exp: 4,
			pairs: 9218, hash: "859f9b020f1a6a1d"},
		{side: 12, slots: 16, maxEdges: 0, mean: 0.3, horizon: 64, patience: 16, exp: 8,
			pairs: 650, hash: "a7bdfbe99755dfc9"},
		{side: 8, slots: 12, maxEdges: 8, mean: 2, minCost: true, horizon: 60, patience: 10, exp: 10,
			pairs: 1541, hash: "e51782f7ba65eea9"},
	} {
		rng := mathx.NewRNG(uint64(tc.side*1000 + tc.slots))
		n := tc.slots * tc.side * tc.side
		wc, tcs := poissonCounts(rng, n, tc.mean), poissonCounts(rng, n, tc.mean)
		sl := timeslot.New(tc.horizon, tc.slots)
		g, err := Build(Config{
			Grid:  geo.NewGrid(geo.NewRect(0, 0, 100, 100), tc.side, tc.side),
			Slots: sl, Velocity: 2, WorkerPatience: tc.patience, TaskExpiry: tc.exp,
			MaxEdgesPerCell: tc.maxEdges, MinCost: tc.minCost, RepSlack: sl.Width() / 2,
		}, wc, tcs)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(g); g.MatchedPairs != tc.pairs || got != tc.hash {
			t.Errorf("%d×%d areas × %d slots, cap %d, mincost %v: %d pairs, layout %s; want %d, %s",
				tc.side, tc.side, tc.slots, tc.maxEdges, tc.minCost, g.MatchedPairs, got, tc.pairs, tc.hash)
		}
	}
}
