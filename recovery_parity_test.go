package ftoa_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ftoa"
	"ftoa/internal/shard/wal"
)

// recoveryGuide builds the learned-shape guide the guided algorithms
// (POLAR, POLAR-OP, Hybrid) share across the parity runs.
func recoveryGuide(t *testing.T, cfg ftoa.Synthetic) *ftoa.Guide {
	t.Helper()
	grid := ftoa.NewGrid(cfg.Bounds(), 8, 8)
	slots := ftoa.NewSlotting(cfg.Horizon, 12)
	wc, tc := cfg.ExpectedCounts(grid, slots)
	g, err := ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
		RepSlack:       slots.Width() / 2,
	}, wc, tc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// driveArrivals feeds instance events [lo, hi) into a router.
func driveArrivals(t *testing.T, r *ftoa.ShardRouter, in *ftoa.Instance, lo, hi int) {
	t.Helper()
	events := in.Events()
	for i := lo; i < hi; i++ {
		var err error
		switch ev := events[i]; ev.Kind {
		case ftoa.WorkerArrival:
			_, _, err = r.AddWorker(in.Workers[ev.Index])
		case ftoa.TaskArrival:
			_, _, err = r.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func mergedStream(t *testing.T, r *ftoa.ShardRouter) []ftoa.ShardEvent {
	t.Helper()
	evs, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// matchedSet extracts the committed pairs (by home identity) from a merged
// stream, in commit order.
func matchedSet(evs []ftoa.ShardEvent) [][4]int {
	var out [][4]int
	for _, ev := range evs {
		if ev.Kind == ftoa.EventMatch {
			out = append(out, [4]int{ev.WorkerShard, ev.Worker, ev.TaskShard, ev.Task})
		}
	}
	return out
}

// TestRecoveryParityGate is the durability acceptance gate: for every
// online algorithm, both validation modes, and both a single-shard and a
// 4×4 halo router, a WAL-logged router killed mid-stream (its log simply
// abandoned, never closed — SyncAlways makes every acknowledged operation
// durable) must recover into a router whose merged event stream, matched
// set and per-shard stats are bit-identical to an unlogged control at the
// kill point, and must stay bit-identical through the rest of the stream
// and Finish.
func TestRecoveryParityGate(t *testing.T) {
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 300, 300
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	g := recoveryGuide(t, cfg)
	halo := ftoa.HaloForWindow(cfg.Velocity, cfg.TaskExpiry) / 4

	algs := []struct {
		name string
		mk   func() ftoa.Algorithm
	}{
		{"POLAR", func() ftoa.Algorithm { return ftoa.NewPOLAR(g) }},
		{"POLAR-OP", func() ftoa.Algorithm { return ftoa.NewPOLAROP(g) }},
		{"SimpleGreedy", func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() }},
		{"GR", func() ftoa.Algorithm { return ftoa.NewGR(cfg.Horizon / 40) }},
		{"Hybrid", func() ftoa.Algorithm { return ftoa.NewHybrid(g) }},
		{"TGOA", func() ftoa.Algorithm { return ftoa.NewTGOA() }},
	}
	grids := []struct {
		name       string
		cols, rows int
		halo       float64
	}{
		{"1x1", 1, 1, 0},
		{"4x4-halo", 4, 4, halo},
	}
	events := in.Events()
	cut := len(events) * 3 / 5

	for _, gr := range grids {
		for _, mode := range []ftoa.Mode{ftoa.AssumeGuide, ftoa.Strict} {
			for _, a := range algs {
				t.Run(fmt.Sprintf("%s/%s/%s", gr.name, mode, a.name), func(t *testing.T) {
					base := ftoa.ShardConfig{
						Matcher: ftoa.MatcherConfig{
							Mode:     mode,
							Velocity: in.Velocity,
							Bounds:   in.Bounds,
							Hints: ftoa.Hints{
								ExpectedWorkers: len(in.Workers),
								ExpectedTasks:   len(in.Tasks),
								Horizon:         in.Horizon,
							},
						},
						Cols:           gr.cols,
						Rows:           gr.rows,
						Halo:           gr.halo,
						NewAlgorithm:   a.mk,
						RetireInterval: in.Horizon / 4,
					}
					control, err := ftoa.NewShardRouter(base)
					if err != nil {
						t.Fatal(err)
					}
					logged := base
					logged.WAL = &ftoa.WALOptions{
						Dir:    filepath.Join(t.TempDir(), "wal"),
						Policy: ftoa.WALSyncAlways,
					}
					walled, err := ftoa.NewShardRouter(logged)
					if err != nil {
						t.Fatal(err)
					}

					driveArrivals(t, control, in, 0, cut)
					driveArrivals(t, walled, in, 0, cut)
					// Kill: abandon the logged router. No flush, no close —
					// SyncAlways already made every acknowledged group durable.
					walled = nil

					rec, info, err := ftoa.RecoverShardRouter(logged)
					if err != nil {
						t.Fatal(err)
					}
					defer rec.WALClose()
					if !info.Recovered || info.Generation != 2 {
						t.Fatalf("info = %+v", info)
					}
					ce, re := mergedStream(t, control), mergedStream(t, rec)
					if !reflect.DeepEqual(ce, re) {
						t.Fatalf("merged stream diverges at kill point: control %d events, recovered %d", len(ce), len(re))
					}
					if !reflect.DeepEqual(matchedSet(ce), matchedSet(re)) {
						t.Fatal("matched set diverges at kill point")
					}
					if info.Matches != len(matchedSet(re)) {
						t.Fatalf("info.Matches = %d, stream has %d", info.Matches, len(matchedSet(re)))
					}

					driveArrivals(t, control, in, cut, len(events))
					driveArrivals(t, rec, in, cut, len(events))
					control.Finish()
					rec.Finish()
					ce, re = mergedStream(t, control), mergedStream(t, rec)
					if !reflect.DeepEqual(ce, re) {
						t.Fatalf("merged stream diverges after continuation: control %d events, recovered %d", len(ce), len(re))
					}
					ms := matchedSet(re)
					if !reflect.DeepEqual(matchedSet(ce), ms) {
						t.Fatal("matched set diverges after continuation")
					}
					if len(ms) == 0 {
						t.Fatal("degenerate parity: no matches committed")
					}
					if !reflect.DeepEqual(control.StatsAll(nil), rec.StatsAll(nil)) {
						t.Fatal("per-shard stats diverge after continuation")
					}
					if err := rec.WALErr(); err != nil {
						t.Fatalf("WAL error: %v", err)
					}
				})
			}
		}
	}
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestRecoverAllocationCeiling holds recovery to "allocate what survives
// it". The log is the durable-fanout shape (2x2 SimpleGreedy, halo, Strict)
// with every arrival inside one retire interval, so all of it is live when
// recovery ends: what Recover allocates in total must stay within twice
// what the recovered router retains (reading the log whole and replaying
// into append-grown arenas cost five times it). And the reader's share
// must not depend on the log at all: scanning a log four times as long
// allocates under the same fixed ceiling — the read buffer.
func TestRecoverAllocationCeiling(t *testing.T) {
	const arrivals = 50000
	dir := filepath.Join(t.TempDir(), "wal")
	fillDurableShape(t, durableShapeConfig(dir), arrivals, 0.3, 1)

	base := heapInUse()
	before := totalAlloc()
	rec, info, err := ftoa.RecoverShardRouter(durableShapeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	allocated := totalAlloc() - before
	retained := heapInUse() - base
	defer rec.WALClose()
	var live int
	for _, st := range rec.StatsAll(nil) {
		live += st.LiveWorkers + st.LiveTasks
	}
	if !info.Recovered || live < arrivals {
		t.Fatalf("recovered %d live objects of %d arrivals: %+v", live, arrivals, info)
	}
	t.Logf("Recover allocated %.1f MB for %.1f MB retained (%d live objects, %d log bytes read)",
		float64(allocated)/1e6, float64(retained)/1e6, live, info.BytesRead)
	if allocated > 2*retained {
		t.Fatalf("Recover allocated %d bytes to rebuild %d retained", allocated, retained)
	}

	// The reader alone, over this log and over one four times as long.
	scanAll := func(dir string) (read int64, allocated uint64) {
		fs := wal.OSFS()
		segs, _, err := wal.Segments(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		var sc wal.Scanner
		before := totalAlloc()
		for _, sg := range segs {
			info, err := sc.ScanFile(fs, sg.Path, func([]byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			read += info.Bytes
		}
		return read, totalAlloc() - before
	}
	long := filepath.Join(t.TempDir(), "wal")
	fillDurableShape(t, durableShapeConfig(long), 4*arrivals, 1.2, 2)
	const ceiling = 128 << 10 // the 64 KiB read buffer, an open file per segment, slack
	read1, alloc1 := scanAll(dir)
	read4, alloc4 := scanAll(long)
	t.Logf("reader: %d bytes allocated over a %d-byte log, %d over a %d-byte log", alloc1, read1, alloc4, read4)
	if read4 < 3*read1 {
		t.Fatalf("the long log is %d bytes against %d, want about 4x", read4, read1)
	}
	if alloc1 > ceiling || alloc4 > ceiling {
		t.Fatalf("reader allocated %d and %d bytes, want both under %d whatever the log length", alloc1, alloc4, ceiling)
	}
}
