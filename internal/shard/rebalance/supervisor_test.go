package rebalance

import (
	"math"
	"testing"

	"ftoa/internal/core"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard"
	"ftoa/internal/sim"
)

func testRouter(t *testing.T) *shard.Router {
	t.Helper()
	r, err := shard.NewRouter(shard.Config{
		Matcher:      sim.MatcherConfig{Mode: sim.Strict, Velocity: 1, Bounds: geo.NewRect(0, 0, 100, 100)},
		Cols:         2,
		Rows:         2,
		NewAlgorithm: func() sim.Algorithm { return core.NewSimpleGreedy() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// admitInto admits n long-lived workers spread across a region's
// rectangle at time at. Workers alone never match, so admission counts
// translate into arrival rate and nothing else.
func admitInto(t *testing.T, r *shard.Router, rect geo.Rect, n int, at float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		fx := (0.5 + float64(i%7)) / 7
		fy := (0.5 + float64(i/7%7)) / 7
		w := model.Worker{
			ID:       i,
			Loc:      geo.Point{X: rect.MinX + fx*rect.Width(), Y: rect.MinY + fy*rect.Height()},
			Arrive:   at,
			Patience: 1e6,
		}
		if _, _, err := r.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
}

func regionRect(r *shard.Router, i int) geo.Rect {
	return r.Topology().Regions(r.Placement().Bounds())[i]
}

func mustTick(t *testing.T, s *Supervisor, now float64) *shard.RebalanceInfo {
	t.Helper()
	info, err := s.Tick(now)
	if err != nil {
		t.Fatalf("Tick(%g): %v", now, err)
	}
	return info
}

func TestNewValidation(t *testing.T) {
	r := testRouter(t)
	if _, err := New(nil, Config{SplitRate: 1}); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := New(r, Config{SplitRate: 0}); err == nil {
		t.Error("zero SplitRate accepted")
	}
	if _, err := New(r, Config{SplitRate: 10, MergeRate: -1}); err == nil {
		t.Error("negative MergeRate accepted")
	}
	if _, err := New(r, Config{SplitRate: 10, MergeRate: 3}); err == nil {
		t.Error("MergeRate inside the hysteresis band accepted")
	}
	if _, err := New(r, Config{SplitRate: 10, Cooldown: -1}); err == nil {
		t.Error("negative Cooldown accepted")
	}
	if s, err := New(r, Config{SplitRate: 10, MergeRate: 2.5}); err != nil || s == nil {
		t.Errorf("boundary MergeRate == SplitRate/4 rejected: %v", err)
	}
}

// TestNewRefusesNaN: NaN passes every "x <= 0" / "x < 0" check, and a NaN
// threshold or cooldown silently disables the comparison it feeds, so
// each rate and the cooldown refuse it. An infinite SplitRate (splitting
// priced out of reach) stays valid.
func TestNewRefusesNaN(t *testing.T) {
	r := testRouter(t)
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"SplitRate NaN", Config{SplitRate: nan}, false},
		{"MergeRate NaN", Config{SplitRate: 10, MergeRate: nan}, false},
		{"Cooldown NaN", Config{SplitRate: 10, Cooldown: nan}, false},
		{"SplitRate +Inf", Config{SplitRate: math.Inf(1)}, true},
		{"finite", Config{SplitRate: 10, MergeRate: 2, Cooldown: 1}, true},
	} {
		if _, err := New(r, tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}

// TestUniformLoadNeverChanges is the guarantee cmd/ftoa-loadgen's
// rebalance pair leans on: TestServeRebalanceUniformParity holds a static
// and an adaptive server to the same matches under uniform load, and
// TestServeRebalanceMovingHotspot is its moving-hotspot counterpart.
// Demand below SplitRate on every region, tick after tick, provably never
// triggers a topology change — so an adaptive server under uniform load
// behaves bit-identically to a static one.
func TestUniformLoadNeverChanges(t *testing.T) {
	r := testRouter(t)
	s, err := New(r, Config{SplitRate: 1000, MergeRate: 10, Tau: 0, Cooldown: 0})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 10; tick++ {
		now := float64(tick)
		for region := 0; region < 4; region++ {
			admitInto(t, r, regionRect(r, region), 5, now)
		}
		if info := mustTick(t, s, now); info != nil {
			t.Fatalf("tick %d changed the topology: %+v", tick, info)
		}
	}
	if s.Changes() != 0 || r.TopologyVersion() != 1 {
		t.Fatalf("uniform load changed topology: %d changes, v%d", s.Changes(), r.TopologyVersion())
	}
}

// TestSplitsHottestRegion: demand over SplitRate splits the hottest
// region, the cooldown blocks an immediate follow-up, and MaxDepth makes
// an over-threshold child ineligible for further refinement.
func TestSplitsHottestRegion(t *testing.T) {
	r := testRouter(t)
	s, err := New(r, Config{SplitRate: 5, Tau: 0, Cooldown: 50, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info := mustTick(t, s, 0); info != nil {
		t.Fatalf("baseline tick changed topology: %+v", info)
	}
	admitInto(t, r, regionRect(r, 0), 20, 0.5)
	admitInto(t, r, regionRect(r, 3), 8, 0.5)
	info := mustTick(t, s, 1)
	if info == nil || info.From != "2x2" || info.To != "2x2+3" || info.Regions != 7 {
		t.Fatalf("hot region did not split: %+v", info)
	}
	// Region 0 (rate 20) must have been chosen over region 3 (rate 8):
	// its children sit at depth 1, old cell 3 (now region 6) stays flat.
	if r.Topology().Depth(0) != 1 || r.Topology().Depth(6) != 0 {
		t.Fatalf("wrong region split: %s", r.Topology())
	}

	// Inside the cooldown nothing changes, however hot it gets.
	admitInto(t, r, regionRect(r, 0), 100, 1.5)
	if info := mustTick(t, s, 2); info != nil {
		t.Fatalf("cooldown violated: %+v", info)
	}
	// After the cooldown the hot region is a depth-1 child: MaxDepth 1
	// makes it ineligible, so the topology holds.
	admitInto(t, r, regionRect(r, 0), 400, 59)
	if info := mustTick(t, s, 60); info != nil {
		t.Fatalf("split past MaxDepth: %+v", info)
	}
	if s.Changes() != 1 {
		t.Fatalf("changes = %d, want 1", s.Changes())
	}
}

// TestMergesColdQuad: once a split region's demand dies away, its sibling
// quad merges back and the topology returns to the base grid.
func TestMergesColdQuad(t *testing.T) {
	r := testRouter(t)
	s, err := New(r, Config{SplitRate: 100, MergeRate: 1, Tau: 0, Cooldown: 0})
	if err != nil {
		t.Fatal(err)
	}
	mustTick(t, s, 0)
	admitInto(t, r, regionRect(r, 0), 200, 0.5)
	if info := mustTick(t, s, 1); info == nil {
		t.Fatal("hot region did not split")
	}
	// The children inherit the parent's demand by area overlap (50 each),
	// well inside the hysteresis band: neither split nor merge fires.
	if info := mustTick(t, s, 2); info != nil {
		t.Fatalf("seeded demand flapped the topology: %+v", info)
	}
	// With no arrivals the next sample zeroes the children's rates and
	// the quad merges back.
	info := mustTick(t, s, 3)
	if info == nil || info.To != "2x2" || info.Version != 3 {
		t.Fatalf("cold quad did not merge: %+v", info)
	}
	if !r.Topology().Uniform() || s.Changes() != 2 {
		t.Fatalf("topology %s after %d changes", r.Topology(), s.Changes())
	}
	// Back at the base grid there is nothing left to merge.
	if info := mustTick(t, s, 4); info != nil {
		t.Fatalf("merged below the base grid: %+v", info)
	}
}
