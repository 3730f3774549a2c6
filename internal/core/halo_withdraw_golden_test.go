package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"ftoa/internal/shard"
	"ftoa/internal/sim"
)

// TestHaloWithdrawStreamGolden pins what every algorithm commits while
// objects are being withdrawn: each of the six algorithms, in both modes,
// runs behind a 1×1 router and a 4×4 router with a halo (whose claims
// withdraw ghost copies), with every seventh receipt withdrawn again by
// the caller and arenas retired along the way. Each line of
// testdata/halo_withdraw_golden.txt is one run: its event and match
// counts and the SHA-256 of the merged event stream, every field of every
// event. Attempted/Rejected are counters, not events, and are not pinned.
// The file is reproduced by emptying it and copying the listing the
// failure prints.
func TestHaloWithdrawStreamGolden(t *testing.T) {
	cfg, in := parityInstance(t, 400)
	halo := shard.HaloForWindow(cfg.Velocity, cfg.TaskExpiry)
	var b strings.Builder
	for _, a := range sixAlgorithms(t, cfg) {
		for _, mode := range []sim.Mode{sim.Strict, sim.AssumeGuide} {
			for _, topo := range []struct {
				name       string
				cols, rows int
				halo       float64
			}{
				{"1x1", 1, 1, 0},
				{"4x4-halo", 4, 4, halo},
			} {
				evs := routerRun(t, shard.Config{
					Matcher: sim.MatcherConfig{
						Mode: mode, Velocity: in.Velocity, Bounds: in.Bounds,
						Hints: sim.Hints{ExpectedWorkers: len(in.Workers), ExpectedTasks: len(in.Tasks), Horizon: in.Horizon},
					},
					NewAlgorithm:   a.mk,
					Cols:           topo.cols,
					Rows:           topo.rows,
					Halo:           topo.halo,
					RetireInterval: cfg.Horizon / 24,
				}, in, nil)
				h := sha256.New()
				matches := 0
				for _, ev := range evs {
					if ev.Kind == sim.EventMatch {
						matches++
					}
					fmt.Fprintf(h, "%d %d %d %d %d %x %d %d\n", ev.Seq, ev.Shard, ev.Kind, ev.Worker, ev.Task,
						math.Float64bits(ev.Time), ev.WorkerShard, ev.TaskShard)
				}
				fmt.Fprintf(&b, "%s/%s/%s %d %d %x\n", a.name, mode, topo.name, len(evs), matches, h.Sum(nil))
			}
		}
	}
	got := b.String()
	want, err := os.ReadFile("testdata/halo_withdraw_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("event streams differ from testdata/halo_withdraw_golden.txt; this run wrote:\n%s", got)
	}
}

// TestTGOAMatchingIgnoresHaloWidth: TGOA's phase split reads its shard's
// population hints, so those must not grow with the halo. On this
// instance a task's mirrors stop at its Expiry·Velocity = 10, so Halo 10
// and Halo 20 mirror exactly the same tasks, and a 4×4 router must commit
// exactly the same event stream at both widths.
func TestTGOAMatchingIgnoresHaloWidth(t *testing.T) {
	cfg, in := parityInstance(t, 400)
	if reach := cfg.TaskExpiry * cfg.Velocity; reach != 10 {
		t.Fatalf("task reach %v, want 10 (mirroring identical at both halos)", reach)
	}
	run := func(halo float64) []shard.Event {
		return routerRun(t, shard.Config{
			Matcher: sim.MatcherConfig{
				Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds,
				Hints: sim.Hints{ExpectedWorkers: len(in.Workers), ExpectedTasks: len(in.Tasks), Horizon: in.Horizon},
			},
			NewAlgorithm: func() sim.Algorithm { return NewTGOA() },
			Cols:         4,
			Rows:         4,
			Halo:         halo,
		}, in, nil)
	}
	matches := func(evs []shard.Event) (n int) {
		for _, ev := range evs {
			if ev.Kind == sim.EventMatch {
				n++
			}
		}
		return n
	}
	narrow, wide := run(10), run(20)
	if !reflect.DeepEqual(narrow, wide) {
		t.Fatalf("TGOA's stream moved with the halo alone: %d events (%d matches) at Halo 10, %d (%d) at Halo 20",
			len(narrow), matches(narrow), len(wide), matches(wide))
	}
}
