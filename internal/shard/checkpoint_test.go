package shard

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ftoa/internal/faultfs"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard/wal"
	"ftoa/internal/sim"
)

// admissions counts the admission ops of a script — what a client would
// have been acknowledged.
func admissions(ops []walOp) int {
	n := 0
	for _, op := range ops {
		if op.kind == 'w' || op.kind == 't' {
			n++
		}
	}
	return n
}

// owned is the lifetime admissions without halo ghost copies.
func (t Totals) owned() int { return t.Workers + t.Tasks - t.GhostWorkers - t.GhostTasks }

// sumStats is the per-shard sum /stats used to report as the lifetime
// figure.
func sumStats(r *Router) (workers, matches int) {
	for _, st := range r.StatsAll(nil) {
		workers += st.Workers
		matches += st.Matches
	}
	return workers, matches
}

// reattemptsOnly reports whether a migration moved nothing in the lifetime
// totals but what it really did: the algorithms ran again over the migrants,
// and with no match among them every attempt counted is a rejection counted.
func reattemptsOnly(before, after Totals) bool {
	d := after.Attempted - before.Attempted
	after.Attempted -= d
	after.Rejected -= d
	return d >= 0 && after == before
}

// TestTotalsSurviveMigration: lifetime totals are a property of the router,
// not of the sessions a migration replaces. Across a split, a checkpoint, a
// merge and a recovery no arrival is counted twice and nothing counted is
// lost — only the pairs the algorithms try again over the migrants are new —
// the owned count stays the number of admissions acknowledged, and only the
// per-shard sum — what /stats used to report — falls back to the migrated
// population.
func TestTotalsSurviveMigration(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(420, 7)
	applied := 0
	run := func(n int) {
		t.Helper()
		applyWalOps(t, r, ops[applied:applied+n])
		applied += n
		if got, want := r.Totals().owned(), admissions(ops[:applied]); got != want {
			t.Fatalf("after %d ops the router owns %d admissions, %d were acknowledged", applied, got, want)
		}
	}
	migrate := func(label string, f func() (*RebalanceInfo, error)) {
		t.Helper()
		before := r.Totals()
		info, err := f()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !info.Sealed || info.RemoveErr != nil {
			t.Fatalf("%s: info = %+v", label, info)
		}
		if after := r.Totals(); !reattemptsOnly(before, after) {
			t.Fatalf("%s moved the lifetime totals:\n got %+v\nwant %+v", label, after, before)
		}
		if before.Matches == 0 || before.GhostTasks == 0 || before.GhostWorkers != 0 {
			t.Fatalf("%s: degenerate totals %+v", label, before)
		}
		if w, m := sumStats(r); w >= before.Workers || m >= before.Matches {
			t.Fatalf("%s: the new sessions alone count %d workers and %d matches — the whole lifetime?", label, w, m)
		}
	}

	run(140)
	migrate("split", func() (*RebalanceInfo, error) { return r.Rebalance(mustSplit(t, r.Topology(), 0)) })
	run(90)
	version, rebalances := r.TopologyVersion(), r.Rebalances()
	migrate("checkpoint", r.Checkpoint)
	if r.TopologyVersion() != version || r.Rebalances() != rebalances {
		t.Fatalf("a checkpoint changed the topology epoch: v%d, %d rebalances", r.TopologyVersion(), r.Rebalances())
	}
	run(90)
	migrate("merge", func() (*RebalanceInfo, error) {
		return r.Rebalance(mustMerge(t, r.Topology(), r.Topology().MergeableQuads()[0][0]))
	})
	run(100)

	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	rec, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WALClose()
	if !info.FromCheckpoint {
		t.Fatalf("recovery info = %+v, want a chain that starts at the merge's checkpoint", info)
	}
	if got, want := rec.Totals(), r.Totals(); got != want {
		t.Fatalf("recovered totals diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestMigrationMatchesCounted: a match committed while a migration re-admits
// is a match like any other. A worker and a task a split kept apart (no
// halo) share a session again after the merge and pair on re-admission: the
// event log, MatchCount and Totals all say one, and so does a router booted
// from the checkpoint sealed after it.
func TestMigrationMatchesCounted(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(1, 1, 0, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(mustSplit(t, r.Topology(), 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(49, 10), Patience: 50}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(51, 10), Expiry: 50}); err != nil {
		t.Fatal(err)
	}
	if got := r.Totals().Matches; got != 0 || r.MatchCount() != 0 {
		t.Fatalf("%d match(es) across a border with no halo", got)
	}
	if _, err := r.Rebalance(mustMerge(t, r.Topology(), 0)); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, ev := range allEvents(t, r) {
		if ev.Kind == sim.EventMatch {
			logged++
		}
	}
	if got := r.Totals().Matches; logged != 1 || r.MatchCount() != 1 || got != 1 {
		t.Fatalf("after the merge: %d match event(s), MatchCount %d, Totals().Matches %d; want 1 each", logged, r.MatchCount(), got)
	}
	if info, err := r.Checkpoint(); err != nil || !info.Sealed {
		t.Fatalf("Checkpoint: %+v, %v", info, err)
	}
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.PersistRemoves()
	fs.Crash()
	rec, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WALClose()
	if got := rec.Totals(); !info.FromCheckpoint || got.Matches != 1 || rec.MatchCount() != 1 || got != r.Totals() {
		t.Fatalf("recovered totals %+v with MatchCount %d (info %+v), want the live router's %+v", got, rec.MatchCount(), info, r.Totals())
	}
}

// TestCheckpointWithoutWAL: nothing to seal, nothing done.
func TestCheckpointWithoutWAL(t *testing.T) {
	r, err := NewRouter(walTestConfig(2, 2, 12, nil))
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Patience: 50})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.state().shards[h.Shard].sess.Epoch()
	if info, err := r.Checkpoint(); info != nil || err != nil {
		t.Fatalf("Checkpoint without a WAL = %+v, %v", info, err)
	}
	if ok, err := r.WithdrawWorker(h, epoch); !ok || err != nil {
		t.Fatalf("the receipt went stale: %v, %v", ok, err)
	}
}

// TestCheckpointOfNothingAlive: with every object matched there is nothing
// to re-admit; the generation is headers and a seal, and the seal alone
// brings the totals, the cursor and the match ordinals back.
func TestCheckpointOfNothingAlive(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Patience: 50}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(10, 11), Expiry: 50}); err != nil {
		t.Fatal(err)
	}
	info, err := r.Checkpoint()
	if err != nil || !info.Sealed || info.MigratedWorkers+info.MigratedTasks != 0 {
		t.Fatalf("checkpoint: %+v, %v", info, err)
	}
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.PersistRemoves()
	fs.Crash()
	rec, rinfo, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WALClose()
	want := Totals{Workers: 1, Tasks: 1, Matches: 1, Attempted: 1}
	if got := rec.Totals(); !rinfo.FromCheckpoint || got != want {
		t.Fatalf("recovered totals %+v (info %+v), want %+v", got, rinfo, want)
	}
	if rec.Cursor() != r.Cursor() || rec.OldestCursor() != r.Cursor() || rec.MatchCount() != 1 || rec.OldestMatch() != 1 {
		t.Fatalf("recovered cursor %d (oldest %d), matches %d (oldest %d); want everything at the checkpoint's bases %d and 1",
			rec.Cursor(), rec.OldestCursor(), rec.MatchCount(), rec.OldestMatch(), r.Cursor())
	}
}

// TestMatchOrdinalsContinueAcrossRecoveredCheckpoint: a match's ordinal is
// its rank among every match the router ever committed, and recovering a
// checkpoint chain — which cannot replay the matches below its sequence
// base — must not renumber from zero.
func TestMatchOrdinalsContinueAcrossRecoveredCheckpoint(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(320, 42)
	applyWalOps(t, r, ops[:150])
	below := r.MatchCount()
	if below == 0 {
		t.Fatal("no match before the rebalance")
	}
	if _, err := r.Rebalance(mustSplit(t, r.Topology(), 0)); err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, r, ops[150:220])
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	rec, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WALClose()

	check := func(label string) {
		t.Helper()
		if got, want := rec.MatchCount(), r.MatchCount(); got != want || got <= below {
			t.Fatalf("%s: MatchCount = %d, the uninterrupted router has %d (%d before the checkpoint)", label, got, want, below)
		}
		if got := rec.OldestMatch(); got != below {
			t.Fatalf("%s: OldestMatch = %d, want the %d matches the checkpoint superseded", label, got, below)
		}
		if _, _, err := rec.Matches(below-1, 0, nil); err != ErrEvicted {
			t.Fatalf("%s: ordinal %d: err = %v, want ErrEvicted", label, below-1, err)
		}
		// One at a time, so every ordinal is exercised as a cursor: dense,
		// monotone, and naming the event the uninterrupted router names.
		for ord := below; ord < rec.MatchCount(); ord++ {
			got, next, err := rec.Matches(ord, 1, nil)
			if err != nil || len(got) != 1 || next != ord+1 {
				t.Fatalf("%s: Matches(%d, 1) = %d events, next %d, err %v", label, ord, len(got), next, err)
			}
			want, _, err := r.Matches(ord, 1, nil)
			if err != nil || len(want) != 1 || got[0] != want[0] {
				t.Fatalf("%s: ordinal %d names %+v, uninterrupted %+v (%v)", label, ord, got, want, err)
			}
		}
	}
	check("at recovery")
	applyWalOps(t, rec, ops[220:])
	applyWalOps(t, r, ops[220:])
	check("after continuation")
}

// TestReplayRejectsForeignWithdrawHandle: a CRC-valid opWithdrawLocal whose
// handle the session does not hold fails recovery closed, like every other
// record the decoders cannot make sense of.
func TestReplayRejectsForeignWithdrawHandle(t *testing.T) {
	for _, local := range []uint32{0xFFFFFFFF, 1, 1 << 30} {
		for _, flags := range []byte{0, 1, 4, 5} {
			r, err := NewRouter(walTestConfig(2, 2, 12, nil))
			if err != nil {
				t.Fatal(err)
			}
			si := r.state().shards[0]
			si.rep = &shardReplay{st: &replayState{}}
			if _, err := si.sess.AddWorker(model.Worker{Loc: geo.Pt(5, 5), Patience: 9}); err != nil {
				t.Fatal(err)
			}
			if _, err := si.sess.AddTask(model.Task{Loc: geo.Pt(45, 45), Expiry: 9}); err != nil {
				t.Fatal(err)
			}
			p := appendU32([]byte{opWithdrawLocal, flags}, local)
			if err := r.replayOp(si, p[0], p); err == nil || !strings.HasPrefix(err.Error(), "wal:") {
				t.Fatalf("handle %d flags %d: err = %v, want a wal: error", int32(local), flags, err)
			}
		}
	}
}

// TestCheckpointCrashSweep points the fault-injecting filesystem at every
// create, write, sync and remove a checkpoint performs: the disk is lost
// at that operation, the process crashes — once with its unlinks lost with
// it, once with them already on disk — and the directory is recovered.
// Recovery never refuses, and lands in exactly one of two states: the
// router as it was before the checkpoint while the seal is not durable,
// the router the checkpoint produced once it is. Nothing in between: the
// superseded generations only go once the seal can stand in for them.
func TestCheckpointCrashSweep(t *testing.T) {
	ops := genWalOps(200, 99)
	build := func() (*Router, *faultfs.FS, Config) {
		t.Helper()
		fs := faultfs.New()
		cfg := walTestConfig(2, 2, 12, fs)
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyWalOps(t, r, ops[:140])
		return r, fs, cfg
	}
	pre, _, _ := build()
	post, pfs, _ := build()
	before := pfs.Ops()
	pinfo, err := post.Checkpoint()
	if err != nil || !pinfo.Sealed || pinfo.SegmentsRemoved != 4 || pinfo.MigratedWorkers+pinfo.MigratedTasks == 0 {
		t.Fatalf("reference checkpoint: %+v, %v", pinfo, err)
	}
	steps := pfs.Ops() - before
	if steps < 4+2+4 {
		t.Fatalf("a checkpoint of 4 shards took %d filesystem operations", steps)
	}

	outcomes := map[bool]int{}
	for k := 0; k <= steps; k++ {
		for _, unlinksDurable := range []bool{false, true} {
			label := fmt.Sprintf("disk lost after %d/%d ops, unlinks durable=%v", k, steps, unlinksDurable)
			r, fs, cfg := build()
			fs.FailAfter(k)
			info, err := r.Checkpoint()
			sealed := err == nil && info.Sealed
			// Whatever the disk did, the live router serves: from the state
			// it had when the generation could not be opened, from the
			// checkpoint's otherwise — sealed or not.
			live := post
			if err != nil {
				live = pre
			}
			if got, want := r.Totals(), live.Totals(); got != want {
				t.Fatalf("%s: live totals %+v, want %+v", label, got, want)
			}
			if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Arrive: 1e3, Patience: 5}); err != nil {
				t.Fatalf("%s: live admission: %v", label, err)
			}
			if unlinksDurable {
				fs.PersistRemoves()
			}
			fs.Crash()

			rec, rinfo, err := Recover(cfg)
			if err != nil {
				t.Fatalf("%s: Recover refused: %v", label, err)
			}
			if sealed && !rinfo.FromCheckpoint {
				t.Fatalf("%s: the checkpoint reported its seal durable, recovery did not find it", label)
			}
			want := pre
			if rinfo.FromCheckpoint {
				want = post
			}
			expectTailParity(t, rec, want, label)
			if got, want := rec.Totals(), want.Totals(); got != want {
				t.Fatalf("%s: recovered totals %+v, want %+v", label, got, want)
			}
			if got, want := rec.MatchCount(), want.MatchCount(); got != want {
				t.Fatalf("%s: recovered match count %d, want %d", label, got, want)
			}
			if _, _, err := rec.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Arrive: 1e3, Patience: 5}); err != nil {
				t.Fatalf("%s: post-recovery admission: %v", label, err)
			}
			rec.WALClose()
			outcomes[rinfo.FromCheckpoint]++
		}
	}
	if outcomes[false] == 0 || outcomes[true] == 0 {
		t.Fatalf("sweep outcomes %v: both the pre- and the post-checkpoint state must occur", outcomes)
	}
	t.Logf("swept %d crash points x 2: %d recovered the pre-checkpoint router, %d the checkpoint", steps+1, outcomes[false], outcomes[true])
}

// TestRecoverCostFollowsLiveState: after a checkpoint, what a restart
// reads, replays and allocates is set by the population alive at the
// checkpoint, not by how much history came before it. The same live set
// behind ten times the history recovers within a tenth of the same cost.
func TestRecoverCostFollowsLiveState(t *testing.T) {
	type cost struct {
		bytes   int64
		records int
		alloc   uint64
		live    int
	}
	measure := func(history int) cost {
		t.Helper()
		fs := faultfs.New()
		cfg := walTestConfig(2, 2, 12, fs)
		cfg.Retention = 64
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyWalOps(t, r, genWalOps(history, 5))
		// Everything the history admitted dies (deadlines are at most 25
		// after arrival), then the same 120 long-lived objects arrive, far
		// enough apart that none of them matches.
		clock := r.StatsAll(nil)[0].Now + 1000
		r.Advance(clock)
		for i := 0; i < 120; i++ {
			loc := geo.Pt(float64(i%12)*8+4, float64(i/12)*9+5)
			if i%2 == 0 {
				_, _, err = r.AddWorker(model.Worker{ID: i, Loc: loc, Arrive: clock, Patience: 1e6})
			} else {
				_, _, err = r.AddTask(model.Task{ID: i, Loc: geo.Pt(loc.X, loc.Y+0.5), Release: clock, Expiry: 0.25})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		info, err := r.Checkpoint()
		if err != nil || !info.Sealed {
			t.Fatalf("checkpoint: %+v, %v", info, err)
		}
		if err := r.WALClose(); err != nil {
			t.Fatal(err)
		}
		fs.PersistRemoves()
		fs.Crash()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, rinfo, err := Recover(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer rec.WALClose()
		if !rinfo.FromCheckpoint || rinfo.SkippedGenerations != 0 {
			t.Fatalf("recovery info = %+v, want one checkpoint generation and nothing else on disk", rinfo)
		}
		if got, want := rec.Totals(), r.Totals(); got != want || got.owned() < history/2 {
			t.Fatalf("recovered totals %+v, want %+v", got, want)
		}
		return cost{rinfo.BytesRead, rinfo.Records, after.TotalAlloc - before.TotalAlloc, info.MigratedWorkers + info.MigratedTasks}
	}
	short, long := measure(600), measure(6000)
	t.Logf("history 600: %+v; history 6000: %+v", short, long)
	if short.live != long.live || short.live < 100 {
		t.Fatalf("live sets differ: %d vs %d objects", short.live, long.live)
	}
	within := func(what string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 0.1*math.Min(a, b) {
			t.Errorf("%s: %.0f behind the short history, %.0f behind ten times as much", what, a, b)
		}
	}
	within("bytes read", float64(short.bytes), float64(long.bytes))
	within("records replayed", float64(short.records), float64(long.records))
	within("bytes allocated", float64(short.alloc), float64(long.alloc))
}

// TestRebalanceUnsealedKeepsHistory: when the seal cannot be made durable
// the generations before it are the only recoverable state and must stay
// exactly as they are; the live router swaps anyway and reports the error.
func TestRebalanceUnsealedKeepsHistory(t *testing.T) {
	ops := genWalOps(150, 42)
	build := func() (*Router, *faultfs.FS, Config) {
		t.Helper()
		fs := faultfs.New()
		cfg := walTestConfig(2, 2, 12, fs)
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyWalOps(t, r, ops)
		return r, fs, cfg
	}
	// A dry run finds the seal: its write and sync are the last two
	// operations before the removals.
	dry, dfs, _ := build()
	before := dfs.Ops()
	dinfo, err := dry.Rebalance(mustSplit(t, dry.Topology(), 0))
	if err != nil || !dinfo.Sealed || dinfo.SegmentsRemoved != 4 {
		t.Fatalf("dry run: %+v, %v", dinfo, err)
	}
	sealWrite := dfs.Ops() - before - dinfo.SegmentsRemoved - 2

	r, fs, cfg := build()
	gen1 := func() map[string][]byte {
		segs, _, err := wal.Segments(fs, "wal")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, sg := range segs {
			if sg.Gen == 1 {
				out[sg.Path] = fs.Durable(sg.Path)
			}
		}
		return out
	}
	want := gen1()
	pre := allEvents(t, r)
	fs.FailAfter(sealWrite)
	info, err := r.Rebalance(mustSplit(t, r.Topology(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.Sealed || info.SegmentsRemoved != 0 {
		t.Fatalf("info = %+v, want an unsealed generation and nothing removed", info)
	}
	if r.TopologyVersion() != 2 || r.WALErr() == nil {
		t.Fatalf("live router: v%d, WALErr %v; want the swap done and the error surfaced", r.TopologyVersion(), r.WALErr())
	}
	if got := gen1(); len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the unsealed checkpoint touched generation 1: %d segments left", len(got))
	}
	fs.Crash()
	rec, rinfo, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.WALClose()
	if rinfo.FromCheckpoint || rinfo.TopologyVersion != 1 || rinfo.SkippedGenerations != 1 {
		t.Fatalf("recovery info = %+v, want the pre-migration chain with the unsealed generation skipped", rinfo)
	}
	if got := allEvents(t, rec); !reflect.DeepEqual(got, pre) {
		t.Fatalf("recovered %d events, want the %d before the failed migration", len(got), len(pre))
	}
}
