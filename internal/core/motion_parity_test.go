package core

import (
	"math"
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// TestMotionTableRetireParity: a dispatched worker's motion state lives in
// the session's motion table, which Retire compacts in place and re-points
// at the survivors' new handles. For POLAR and POLAR-OP in both modes, a
// session that retires every quarter patience window must report, for every
// surviving worker after every admission and around every retirement, the
// bit-identical WorkerPos of a session that never retires. Besides the
// algorithms' own dispatches, the driver sends every third survivor off
// again right after each retirement, in both sessions alike: short trips
// that end before the next retirement (the entry carried across is at
// rest away from the arrival point) and long ones still under way when it
// comes (the entry carried across is moving).
func TestMotionTableRetireParity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 400, 400
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Four retirements per patience window, so that in Strict mode a
	// worker sent off at one retirement is still alive at the next.
	every := cfg.WorkerPatience / 4
	for _, mode := range []sim.Mode{sim.AssumeGuide, sim.Strict} {
		for _, a := range sixAlgorithms(t, cfg) {
			if a.name != "POLAR" && a.name != "POLAR-OP" {
				continue
			}
			t.Run(a.name+"/"+mode.String(), func(t *testing.T) {
				motionParity(t, in, mode, a.mk, every)
			})
		}
	}
}

func motionParity(t *testing.T, in *model.Instance, mode sim.Mode, mk func() sim.Algorithm, every float64) {
	plain := sessionMatcher(t, in, mode).NewSession(mk())
	var h2w []int // retiring session's handle -> instance index
	cfg := sessionMatcher(t, in, mode).Config()
	cfg.OnRetire = func(wm, _ []int32) {
		k := 0
		for old, nh := range wm {
			if nh >= 0 {
				h2w[nh] = h2w[old]
				k++
			}
		}
		h2w = h2w[:k]
	}
	m, err := sim.NewMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ret := m.NewSession(mk())
	plainH := make([]int, len(in.Workers)) // instance index -> plain handle

	// moved: instance indexes seen away from their arrival point, i.e.
	// holding a motion entry. trips: the driver's last target per index.
	moved := make(map[int]bool)
	trips := make(map[int]geo.Point)
	compare := func(now float64) {
		t.Helper()
		if plain.Now() != ret.Now() {
			t.Fatalf("clocks apart: plain %v, retiring %v", plain.Now(), ret.Now())
		}
		for h, i := range h2w {
			got, want := ret.WorkerPos(h, now), plain.WorkerPos(plainH[i], now)
			if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
				t.Fatalf("epoch %d, t=%v: worker %d (handle %d) at %v, unretired session says %v",
					ret.Epoch(), now, i, h, got, want)
			}
			if got != in.Workers[i].Loc {
				moved[i] = true
			}
		}
	}

	var restingAcross, movingAcross, redispatched int
	lastRetire := 0.0
	for _, ev := range in.Events() {
		if ev.Time >= lastRetire+every {
			now := ret.Now()
			compare(now)
			resting := make(map[int]bool)
			for h, i := range h2w {
				if tg, ok := trips[i]; ok && ret.WorkerPos(h, now) == tg {
					resting[i] = true
				}
			}
			ret.Retire(now)
			compare(now)
			for h, i := range h2w {
				switch {
				case resting[i]:
					restingAcross++
				case moved[i]:
					movingAcross++
				}
				if h%3 != 0 || !ret.WorkerAvailable(h, now) {
					continue
				}
				if moved[i] {
					redispatched++
				}
				// Short trips take an eighth of a retirement period, long
				// ones eight periods.
				hop := geo.Pt(in.Velocity*every/8, 0)
				if len(trips)%2 == 1 {
					hop = geo.Pt(0, in.Velocity*every*8)
				}
				tg := ret.WorkerPos(h, now).Add(hop)
				ret.Dispatch(h, tg, now)
				plain.Dispatch(plainH[i], tg, now)
				trips[i] = tg
			}
			compare(now)
			lastRetire = ev.Time
		}
		switch ev.Kind {
		case model.WorkerArrival:
			h, err := ret.AddWorker(in.Workers[ev.Index])
			if err != nil || h != len(h2w) {
				t.Fatalf("admission: handle %d, err %v; want handle %d", h, err, len(h2w))
			}
			h2w = append(h2w, ev.Index)
			if plainH[ev.Index], err = plain.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			if _, err := ret.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
		compare(ret.Now())
	}
	t.Logf("%d retirements; carried across: %d workers at rest on a driver target, %d others away from their arrival point; %d re-dispatched",
		ret.Epoch(), restingAcross, movingAcross, redispatched)
	if ret.Epoch() < 3 || restingAcross == 0 || movingAcross == 0 || redispatched == 0 {
		t.Fatal("degenerate parity: want at least 3 retirements carrying workers at rest and under way, and re-dispatches after one")
	}
}
