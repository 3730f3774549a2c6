package ftoa_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"ftoa"
)

// expectTail asserts two routers agree on everything a consumer can still
// read — the merged stream from the later of the two retention boundaries,
// the cursor, per-shard stats, lifetime totals, the /matches page — which
// is how a router recovered from a checkpoint (nothing below its sequence
// base) compares with the one that wrote it.
func expectTail(t *testing.T, got, want *ftoa.ShardRouter, label string) {
	t.Helper()
	since := max(got.OldestCursor(), want.OldestCursor())
	ge, _, err := got.Events(since, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	we, _, err := want.Events(since, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: %d events from cursor %d, want %d", label, len(ge), since, len(we))
	}
	if got.Cursor() != want.Cursor() {
		t.Fatalf("%s: cursor %d, want %d", label, got.Cursor(), want.Cursor())
	}
	if gs, ws := got.StatsAll(nil), want.StatsAll(nil); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: per-shard stats diverge:\n got %+v\nwant %+v", label, gs, ws)
	}
	if gt, wt := got.Totals(), want.Totals(); gt != wt {
		t.Fatalf("%s: lifetime totals diverge:\n got %+v\nwant %+v", label, gt, wt)
	}
	wm := matchEvents(we)
	for _, r := range []*ftoa.ShardRouter{got, want} {
		if gm, _, err := r.Matches(since, 0, nil); err != nil || !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: Matches from cursor %d = %d matches (%v), want the %d match events", label, since, len(gm), err, len(wm))
		}
	}
}

// matchEvents is evs filtered to commits.
func matchEvents(evs []ftoa.ShardEvent) []ftoa.ShardEvent {
	var out []ftoa.ShardEvent
	for _, ev := range evs {
		if ev.Kind == ftoa.EventMatch {
			out = append(out, ev)
		}
	}
	return out
}

// TestCheckpointRecoveryParity is the clean-restart acceptance gate: for
// every online algorithm, both validation modes, and both a single-shard
// and a 4×4 halo router, a router that checkpoints mid-stream and the
// router recovered from what that checkpoint left on disk — one sealed
// generation, nothing older — are the same router: same readable stream,
// stats, totals and match pages at the checkpoint, and the same again after
// both are driven through the rest of the stream and Finish. (A checkpoint
// is not transparent to the matching itself — algorithm state restarts
// from the live population — so the comparison is with the router that
// checkpointed, not with one that never did.)
func TestCheckpointRecoveryParity(t *testing.T) {
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
					rcfg := ftoa.ShardConfig{
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
						WAL: &ftoa.WALOptions{
							Dir:    filepath.Join(t.TempDir(), "wal"),
							Policy: ftoa.WALSyncAlways,
						},
					}
					live, err := ftoa.NewShardRouter(rcfg)
					if err != nil {
						t.Fatal(err)
					}
					driveArrivals(t, live, in, 0, cut)
					before, cursorBefore := live.Totals(), live.Cursor()
					info, err := live.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if !info.Sealed || info.RemoveErr != nil || info.SegmentsRemoved != gr.cols*gr.rows {
						t.Fatalf("checkpoint info = %+v", info)
					}
					if info.MigratedWorkers+info.MigratedTasks == 0 {
						t.Fatal("degenerate checkpoint: nothing alive to re-admit")
					}
					// The re-admissions count no arrival twice. What a migration
					// does for real stays counted. The algorithms run again
					// over the migrants: attempts, rejections and — POLAR and
					// TGOA pair on arrival — matches between objects still
					// alive, each one in the event log and in the totals alike.
					// And every region is brought to the furthest shard clock:
					// the deadlines that passes expire (and retract from their
					// ghost sessions) as they would have at the next Advance.
					after := live.Totals()
					migrated, _, err := live.Events(cursorBefore, nil)
					if err != nil {
						t.Fatal(err)
					}
					committed := len(matchEvents(migrated))
					rejected, border := after.Rejected-before.Rejected, after.BorderMatches-before.BorderMatches
					if after.Matches-before.Matches != committed || after.Attempted-before.Attempted != rejected+committed ||
						rejected < 0 || border < 0 || border > committed {
						t.Fatalf("the checkpoint logged %d match(es) and counted otherwise:\n got %+v\nwant %+v", committed, after, before)
					}
					if after.ExpiredWorkers < before.ExpiredWorkers || after.ExpiredTasks < before.ExpiredTasks ||
						after.WithdrawnWorkers < before.WithdrawnWorkers || after.WithdrawnTasks < before.WithdrawnTasks {
						t.Fatalf("the checkpoint lost expiries:\n got %+v\nwant %+v", after, before)
					}
					after.Matches, after.BorderMatches = before.Matches, before.BorderMatches
					after.Attempted, after.Rejected = before.Attempted, before.Rejected
					after.ExpiredWorkers, after.ExpiredTasks = before.ExpiredWorkers, before.ExpiredTasks
					after.WithdrawnWorkers, after.WithdrawnTasks = before.WithdrawnWorkers, before.WithdrawnTasks
					if after != before {
						t.Fatalf("the checkpoint moved the lifetime totals:\n got %+v\nwant %+v", after, before)
					}

					// Restart: the checkpointing process goes on living (below)
					// but stops writing; the directory is booted as it stands.
					if err := live.WALClose(); err != nil {
						t.Fatal(err)
					}
					rec, rinfo, err := ftoa.RecoverShardRouter(rcfg)
					if err != nil {
						t.Fatal(err)
					}
					defer rec.WALClose()
					if !rinfo.FromCheckpoint || rinfo.SkippedGenerations != 0 || rinfo.Segments != gr.cols*gr.rows {
						t.Fatalf("recovery info = %+v, want the checkpoint generation alone", rinfo)
					}
					expectTail(t, rec, live, "at the checkpoint")

					driveArrivals(t, live, in, cut, len(events))
					driveArrivals(t, rec, in, cut, len(events))
					live.Finish()
					rec.Finish()
					expectTail(t, rec, live, "after continuation")
					if got := rec.Totals(); got.Matches <= before.Matches {
						t.Fatalf("degenerate continuation: %d matches, %d at the checkpoint", got.Matches, before.Matches)
					}
					if err := rec.WALErr(); err != nil {
						t.Fatalf("WAL error: %v", err)
					}
				})
			}
		}
	}
}
