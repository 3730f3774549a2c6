package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftoa/internal/core"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
)

// TestHaloFindsShortPairs is the halo's guarantee, pair by pair: a worker
// and a task on either side of a region edge, or of a region corner, at most
// min(2·Halo, Dr·v) apart, match in a sharded router exactly when and as
// they match in a 1×1 router over the same area — whichever arrives first,
// in both modes. A task farther than that distance from a region leaves no
// ghost copy there: no worker in it could serve the task, or no pair that
// short could cross into it.
func TestHaloFindsShortPairs(t *testing.T) {
	const (
		side     = 100.0
		velocity = 1.0
		expiry   = 10.0 // Dr
		patience = 20.0
	)
	bounds := geo.Rect{MaxX: side, MaxY: side}
	reach := expiry * velocity
	run := func(mode sim.Mode, n int, halo float64, first, second admission) (matches []Event, r *Router) {
		r, err := NewRouter(Config{
			Matcher:      sim.MatcherConfig{Mode: mode, Velocity: velocity, Bounds: bounds},
			Cols:         n,
			Rows:         n,
			Halo:         halo,
			NewAlgorithm: func() sim.Algorithm { return core.NewSimpleGreedy() },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ad := range []admission{first, second} {
			if _, _, err := r.add(ad); err != nil {
				t.Fatal(err)
			}
		}
		r.Finish()
		for _, ev := range allEvents(t, r) {
			if ev.Kind == sim.EventMatch {
				matches = append(matches, ev)
			}
		}
		return matches, r
	}
	rng := rand.New(rand.NewSource(41))
	found := 0
	for _, n := range []int{2, 4} {
		cell := side / float64(n)
		for _, corner := range []bool{false, true} {
			for _, halo := range []float64{reach / 2, reach} {
				limit := math.Min(2*halo, reach)
				for trial := 0; trial < 24; trial++ {
					// The crossing point m: a grid vertex, or a point of an
					// interior vertical edge at least `limit` from any horizontal
					// one, so both endpoints land in the two regions it divides.
					i, j := 1+rng.Intn(n-1), rng.Intn(n)
					m := geo.Pt(float64(i)*cell, float64(j)*cell+limit+rng.Float64()*(cell-2*limit))
					theta := (rng.Float64()*2 - 1) * math.Pi / 3 // crosses the edge
					if corner {
						m.Y = float64(1+rng.Intn(n-1)) * cell
						theta = math.Pi/12 + rng.Float64()*math.Pi/3 + float64(rng.Intn(4))*math.Pi/2
					}
					length := limit * (0.05 + 0.95*rng.Float64())
					a := length * (0.05 + 0.9*rng.Float64())
					u := geo.Pt(math.Cos(theta), math.Sin(theta))
					wLoc := geo.Pt(m.X-a*u.X, m.Y-a*u.Y)
					tLoc := geo.Pt(m.X+(length-a)*u.X, m.Y+(length-a)*u.Y)
					if rng.Intn(2) == 0 {
						wLoc, tLoc = tLoc, wLoc
					}
					for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
						for _, taskFirst := range []bool{false, true} {
							w := workerAdmission(model.Worker{ID: 1, Loc: wLoc, Arrive: 0, Patience: patience})
							tk := taskAdmission(model.Task{ID: 2, Loc: tLoc, Release: 1, Expiry: expiry})
							first, second := w, tk
							if taskFirst {
								w.at, tk.at = 1, 0
								first, second = tk, w
							}
							label := fmt.Sprintf("%dx%d corner=%v halo=%g %v taskFirst=%v w=%v t=%v len=%.3f",
								n, n, corner, halo, mode, taskFirst, wLoc, tLoc, length)
							want, _ := run(mode, 1, 0, first, second)
							got, r := run(mode, n, halo, first, second)
							if len(got) != len(want) {
								t.Fatalf("%s: %d matches sharded, %d in one region", label, len(got), len(want))
							}
							if len(got) == 1 {
								found++
								if got[0].Time != want[0].Time {
									t.Fatalf("%s: matched at %g sharded, %g in one region", label, got[0].Time, want[0].Time)
								}
							}
							owner := r.ShardOf(tLoc)
							for s, st := range r.StatsAll(nil) {
								if s != owner && st.GhostTasks > 0 && pointRectDistSq(tLoc, r.ShardBounds(s)) > limit*limit {
									t.Fatalf("%s: a task %g from shard %d left %d ghosts there",
										label, math.Sqrt(pointRectDistSq(tLoc, r.ShardBounds(s))), s, st.GhostTasks)
								}
							}
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no pair matched; the instance exercises nothing")
	}
	t.Logf("%d cross-border pairs matched", found)
}
