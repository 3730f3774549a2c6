package shard

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"ftoa/internal/faultfs"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard/wal"
	"ftoa/internal/sim"
)

// eventsFrom reads the merged stream from since to the cursor.
func eventsFrom(t *testing.T, r *Router, since uint64) []Event {
	t.Helper()
	evs, _, err := r.Events(since, nil)
	if err != nil {
		t.Fatalf("Events(%d): %v", since, err)
	}
	return evs
}

// expectTailParity is expectParity for routers whose retained windows may
// start at different cursors (a checkpoint recovery evicts everything
// below its sequence base): the comparison starts at the later boundary.
func expectTailParity(t *testing.T, got, want *Router, label string) {
	t.Helper()
	since := got.OldestCursor()
	if w := want.OldestCursor(); w > since {
		since = w
	}
	ge, we := eventsFrom(t, got, since), eventsFrom(t, want, since)
	if len(ge) != len(we) {
		t.Fatalf("%s: %d events from %d, want %d", label, len(ge), since, len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, ge[i], we[i])
		}
	}
	gs, ws := got.StatsAll(nil), want.StatsAll(nil)
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: stats diverge:\n got %+v\nwant %+v", label, gs, ws)
	}
	if got.Cursor() != want.Cursor() {
		t.Fatalf("%s: cursor %d, want %d", label, got.Cursor(), want.Cursor())
	}
	if got.TopologyVersion() != want.TopologyVersion() || !got.Topology().Equal(want.Topology()) {
		t.Fatalf("%s: topology %s v%d, want %s v%d", label,
			got.Topology(), got.TopologyVersion(), want.Topology(), want.TopologyVersion())
	}
}

func TestRebalanceValidation(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := r.Rebalance(NewUniformTopology(3, 2)); err == nil {
		t.Error("base-grid mismatch accepted")
	}
	if _, err := r.Rebalance(NewUniformTopology(2, 2)); err == nil {
		t.Error("rebalance to the current topology accepted")
	}
	if r.TopologyVersion() != 1 || r.Rebalances() != 0 {
		t.Fatalf("failed attempts mutated the router: v%d, %d rebalances", r.TopologyVersion(), r.Rebalances())
	}
}

// TestRebalanceSplitMigratesLiveState walks one split end to end on a
// hand-built population and checks every migration contract directly:
// concluded lifecycles stay archived under their original sequence
// numbers, live objects move to the owning child region with original
// deadlines intact, old receipts die ErrStaleHandle, and migrated objects
// keep matching.
func TestRebalanceSplitMigratesLiveState(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// A matched pair (concluded before the split), a long-lived unmatched
	// worker, and a worker that expires at t=10 — all in base cell 0.
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 100}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(10, 11), Release: 0, Expiry: 100}); err != nil {
		t.Fatal(err)
	}
	hB, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(30, 30), Arrive: 0, Patience: 50})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.state().shards[hB.Shard].sess.Epoch()
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 40), Arrive: 0, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	r.Advance(5)
	pre := allEvents(t, r)
	if len(pre) != 1 || pre[0].Kind != sim.EventMatch {
		t.Fatalf("setup events = %+v, want exactly one match", pre)
	}

	nt := mustSplit(t, r.Topology(), 0)
	info, err := r.Rebalance(nt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Regions != 7 || info.From != "2x2" || info.To != "2x2+3" {
		t.Fatalf("info = %+v", info)
	}
	// The matched pair is concluded and must not move; the two live
	// unmatched workers must.
	if info.MigratedWorkers != 2 || info.MigratedTasks != 0 {
		t.Fatalf("migrated %d workers + %d tasks, want 2 + 0", info.MigratedWorkers, info.MigratedTasks)
	}
	if r.TopologyVersion() != 2 || r.Rebalances() != 1 || r.Migrating() {
		t.Fatalf("post-rebalance: v%d, %d rebalances, migrating=%v", r.TopologyVersion(), r.Rebalances(), r.Migrating())
	}
	if r.NumShards() != 7 {
		t.Fatalf("NumShards = %d, want 7", r.NumShards())
	}
	// The archived stream is untouched: same events, same seqs.
	if got := allEvents(t, r); !reflect.DeepEqual(got, pre) {
		t.Fatalf("migration disturbed the event stream:\n got %+v\nwant %+v", got, pre)
	}
	// Receipts issued under the old topology are invalidated, not aliased.
	if _, err := r.WithdrawWorker(hB, epoch); err != ErrStaleHandle {
		t.Fatalf("old receipt: err = %v, want ErrStaleHandle", err)
	}

	// The short-lived worker at (10,40) now lives in base cell 0's NW
	// child (region 2) and must expire there at its original deadline.
	r.Advance(10)
	evs := allEvents(t, r)
	if len(evs) != 2 {
		t.Fatalf("after advance: events = %+v", evs)
	}
	exp := evs[1]
	if exp.Kind != sim.EventWorkerExpired || exp.Time != 10 || exp.Shard != 2 {
		t.Fatalf("expiry = %+v, want worker expiry at t=10 in region 2", exp)
	}
	// The long-lived migrant still matches: a task next to it (NE child,
	// region 3) pairs immediately.
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(30, 31), Release: 10, Expiry: 50}); err != nil {
		t.Fatal(err)
	}
	evs = allEvents(t, r)
	last := evs[len(evs)-1]
	if len(evs) != 3 || last.Kind != sim.EventMatch || last.Shard != 3 {
		t.Fatalf("migrated worker did not match: events = %+v", evs)
	}
	if st := r.ShardStats(3); st.Matches != 1 {
		t.Fatalf("region 3 stats = %+v, want 1 match", st)
	}
}

// TestRebalanceMergeRoundTrip: split under load, keep serving, merge back,
// and require the merged event stream to stay one dense, append-only
// cursor space across both topology changes.
func TestRebalanceMergeRoundTrip(t *testing.T) {
	cfg := walTestConfig(2, 2, 12, nil)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(300, 23)
	applyWalOps(t, r, ops[:120])
	pre := allEvents(t, r)

	if _, err := r.Rebalance(mustSplit(t, r.Topology(), 1)); err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, r, ops[120:240])
	mid := allEvents(t, r)
	if len(mid) < len(pre) || !reflect.DeepEqual(mid[:len(pre)], pre) {
		t.Fatal("split lost or reordered archived events")
	}

	quads := r.Topology().MergeableQuads()
	if len(quads) != 1 {
		t.Fatalf("MergeableQuads = %v", quads)
	}
	info, err := r.Rebalance(mustMerge(t, r.Topology(), quads[0][0]))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || !r.Topology().Equal(NewUniformTopology(2, 2)) {
		t.Fatalf("merge info = %+v, topology %s", info, r.Topology())
	}
	applyWalOps(t, r, ops[240:])
	r.Finish()

	final := allEvents(t, r)
	if len(final) < len(mid) || !reflect.DeepEqual(final[:len(mid)], mid) {
		t.Fatal("merge lost or reordered archived events")
	}
	for i, ev := range final {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: the merged cursor space tore", i, ev.Seq)
		}
	}
	if cur := r.Cursor(); cur != uint64(len(final)) {
		t.Fatalf("cursor = %d, want %d", cur, len(final))
	}
	if r.Rebalances() != 2 {
		t.Fatalf("rebalances = %d, want 2", r.Rebalances())
	}
}

// TestSampleRates: the EWMA tracks owner admissions per second — first
// sample baselines, tau<=0 is instantaneous, non-advancing clocks
// re-baseline without folding, and tau>0 applies 1-exp(-dt/tau).
func TestSampleRates(t *testing.T) {
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rate := func() float64 { return r.ShardStats(0).ArrivalRate }
	admit := func(n int, at float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			// Spread far apart so nothing matches and counts stay pure.
			if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(float64(i%10)*10+1, math.Floor(float64(i)/10)*30+1), Arrive: at, Patience: 1e6}); err != nil {
				t.Fatal(err)
			}
		}
	}
	admit(5, 0)
	r.SampleRates(10, 0)
	if got := rate(); got != 0 {
		t.Fatalf("first sample folded: rate = %g, want 0 (baseline only)", got)
	}
	admit(10, 10)
	r.SampleRates(12, 0)
	if got := rate(); got != 5 {
		t.Fatalf("instantaneous rate = %g, want 10/2", got)
	}
	// A non-advancing clock must not divide by zero or decay the estimate.
	r.SampleRates(12, 0)
	r.SampleRates(11, 0)
	if got := rate(); got != 5 {
		t.Fatalf("rate after stalled clock = %g, want 5", got)
	}
	admit(4, 11)
	r.SampleRates(13, 2)
	alpha := 1 - math.Exp(-1)
	want := 5 + alpha*(2-5)
	if got := rate(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("smoothed rate = %g, want %g", got, want)
	}
}

// TestRebalanceRecoveryParity is the durability acceptance gate for
// topology changes: a WAL that witnessed a split (and later a merge) must
// recover to a bit-identical post-rebalance router after a clean
// shutdown — same topology version, same stats, same event tail, same
// cursor — and keep recording correctly afterwards.
func TestRebalanceRecoveryParity(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(300, 42)
	applyWalOps(t, r, ops[:150])
	info, err := r.Rebalance(mustSplit(t, r.Topology(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.WALGeneration != 2 {
		t.Fatalf("checkpoint generation = %d, want 2", info.WALGeneration)
	}
	applyWalOps(t, r, ops[150:220])
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	rec, rinfo, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rinfo.Recovered || rinfo.TopologyVersion != 2 || rinfo.Topology != "2x2+3" {
		t.Fatalf("recovery info = %+v", rinfo)
	}
	if rinfo.SkippedGenerations != 1 {
		t.Fatalf("skipped generations = %d, want 1 (the pre-split chain)", rinfo.SkippedGenerations)
	}
	expectTailParity(t, rec, r, "after split recovery")

	// Both continue; the recovered router records generation 3.
	applyWalOps(t, rec, ops[220:260])
	applyWalOps(t, r, ops[220:260])
	expectTailParity(t, rec, r, "split continuation")

	// Merge back on the recovered router and recover once more: the chain
	// now ends at the merge's checkpoint.
	quads := rec.Topology().MergeableQuads()
	if _, err := rec.Rebalance(mustMerge(t, rec.Topology(), quads[0][0])); err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, rec, ops[260:])
	rec.Finish()
	if err := rec.WALErr(); err != nil {
		t.Fatal(err)
	}
	if err := rec.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	rec2, rinfo2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo2.TopologyVersion != 3 || rinfo2.Topology != "2x2" {
		t.Fatalf("post-merge recovery info = %+v", rinfo2)
	}
	expectTailParity(t, rec2, rec, "after merge recovery")
	rec2.WALClose()
}

// TestRecoverSkipsSupersededGenerations: once a checkpoint is sealed the
// generations before it are history the recovered state does not depend
// on. The migration deletes them; and where a crash undoes those unlinks
// (nothing syncs the directory) recovery must not open them at all, so
// what they hold (here: garbage, and a header from a different
// configuration) cannot refuse the boot, and the recovered router is the
// one an intact directory gives. (An unsealed checkpoint deletes nothing:
// TestRebalanceUnsealedKeepsHistory.)
func TestRecoverSkipsSupersededGenerations(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(260, 42)
	applyWalOps(t, r, ops[:150])
	rinfo, err := r.Rebalance(mustSplit(t, r.Topology(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rinfo.Sealed || rinfo.SegmentsRemoved != 4 || rinfo.RemoveErr != nil {
		t.Fatalf("rebalance info = %+v, want a sealed checkpoint and generation 1's four segments removed", rinfo)
	}
	segs, _, err := wal.Segments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs {
		if sg.Gen < rinfo.WALGeneration {
			t.Fatalf("superseded segment %s still listed after the seal", sg.Path)
		}
	}
	applyWalOps(t, r, ops[150:220])
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	// The crash brings the unlinked generation back: nobody synced the
	// directory. Recovery has to cope with it lying under the seal.
	fs.Crash()

	if segs, _, err = wal.Segments(fs, "wal"); err != nil {
		t.Fatal(err)
	}
	var superseded, chain []string
	for _, sg := range segs {
		if sg.Gen == 1 {
			superseded = append(superseded, sg.Path)
		} else {
			chain = append(chain, sg.Path)
		}
	}
	if len(superseded) != 4 || len(chain) != 7 {
		t.Fatalf("segments: %d superseded, %d on the chain; want 4 and 7", len(superseded), len(chain))
	}

	rec, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range superseded {
		if n := fs.Opens(path); n != 0 {
			t.Errorf("superseded segment %s opened %d time(s)", path, n)
		}
	}
	for _, path := range chain {
		if fs.Opens(path) == 0 {
			t.Errorf("chain segment %s never opened", path)
		}
	}
	if info.SkippedGenerations != 1 || info.Segments != len(chain) {
		t.Fatalf("info = %+v, want 1 skipped generation and %d segments read", info, len(chain))
	}
	var onChain int64
	for _, path := range chain {
		onChain += int64(len(fs.Durable(path)))
	}
	// One header read and one replay pass over the chain, plus the seal
	// scan of the checkpoint's shard 0: under two chain lengths, and
	// nothing of generation 1.
	if info.BytesRead < onChain || info.BytesRead > 2*onChain {
		t.Fatalf("read %d bytes for a %d-byte chain", info.BytesRead, onChain)
	}
	expectTailParity(t, rec, r, "intact directory")
	if err := rec.WALClose(); err != nil {
		t.Fatal(err)
	}

	// Overwrite the superseded generation: noise over one segment, and over
	// another a well-formed header written under a different configuration,
	// which fails Recover wherever it is read.
	fs.SetFile(superseded[0], bytes.Repeat([]byte{0xA5}, 512))
	other := walTestConfig(2, 2, 3, nil)
	fs.SetFile(superseded[1], encodeHeader(1, encodeFingerprint(&other), headerMeta{gen: 1, topoVer: 1}))
	// The recovery above opened generation 3; drop it so this boot sees the
	// same chain.
	for _, sg := range segs {
		fs.Remove(filepath.Join("wal", fmt.Sprintf("s%03d-g%06d.wal", sg.Shard, 3)))
	}
	rec2, info2, err := Recover(cfg)
	if err != nil {
		t.Fatalf("garbage in a superseded generation refused the boot: %v", err)
	}
	if info2.TornBytes != 0 || info2.Records != info.Records || info2.Events != info.Events {
		t.Fatalf("info = %+v, want the intact directory's %+v", info2, info)
	}
	expectTailParity(t, rec2, r, "garbage under the seal")
	rec2.WALClose()
}

// TestRebalanceCrashSweep is the fault-injection gate for topology-epoch
// records: record a run with a split in the middle, then truncate the
// checkpoint generation's segments at every frame boundary (plus torn
// mid-frame cuts) and boot from each image. Recovery must always land in
// one of exactly two states — the complete pre-migration router while the
// seal is not durable, or a per-shard event prefix of the post-migration
// router once it is. Cutting the PRE-migration generation under an intact
// checkpoint must change nothing at all: the checkpoint needs no history.
func TestRebalanceCrashSweep(t *testing.T) {
	cfg := walTestConfig(2, 2, 12, faultfs.New())
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := genWalOps(200, 99)
	applyWalOps(t, r, ops[:120])
	preEvents := allEvents(t, r)
	preStats := r.StatsAll(nil)
	seqBase := r.Cursor()
	if _, err := r.Rebalance(mustSplit(t, r.Topology(), 0)); err != nil {
		t.Fatal(err)
	}
	applyWalOps(t, r, ops[120:])
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}

	oldShards, newShards := 4, r.NumShards()
	if newShards != 7 {
		t.Fatalf("post-split shards = %d", newShards)
	}
	fullStats := r.StatsAll(nil)
	fullCursor := r.Cursor()
	postByShard := make(map[int][]Event)
	for _, ev := range eventsFrom(t, r, seqBase) {
		postByShard[ev.Shard] = append(postByShard[ev.Shard], ev)
	}

	ffs := cfg.WAL.FS.(*faultfs.FS)
	name := func(shard int, gen uint64) string { return fmt.Sprintf("wal/s%03d-g%06d.wal", shard, gen) }
	g1 := make([][]byte, oldShards)
	for s := range g1 {
		g1[s] = ffs.Durable(name(s, 1))
	}
	g2 := make([][]byte, newShards)
	for s := range g2 {
		g2[s] = ffs.Durable(name(s, 2))
		if len(g2[s]) == 0 {
			t.Fatalf("checkpoint shard %d wrote no durable bytes", s)
		}
	}
	// The seal record sits mid-file in shard 0's checkpoint segment (the
	// post-migration ops follow it); the migration is committed once the
	// cut keeps the whole seal frame.
	sealEnd := -1
	sealBounds := frameBoundaries(g2[0])
	for k := 1; k < len(sealBounds); k++ {
		if g2[0][sealBounds[k-1]+8] == recSeal {
			sealEnd = sealBounds[k]
			break
		}
	}
	if sealEnd < 0 {
		t.Fatal("no seal record found in shard 0's checkpoint segment")
	}

	boot := func(t *testing.T, cutShard, cut int, cutGen uint64) (*Router, *RecoveryInfo) {
		t.Helper()
		fs := faultfs.New()
		for s := 0; s < oldShards; s++ {
			img := g1[s]
			if cutGen == 1 && s == cutShard {
				img = img[:cut]
			}
			fs.SetFile(name(s, 1), img)
		}
		for s := 0; s < newShards; s++ {
			img := g2[s]
			if cutGen == 2 && s == cutShard {
				img = img[:cut]
			}
			fs.SetFile(name(s, 2), img)
		}
		c := cfg
		c.WAL = &wal.Options{Dir: "wal", Policy: wal.SyncAlways, FS: fs}
		rec, info, err := Recover(c)
		if err != nil {
			t.Fatalf("shard %d gen %d cut %d: Recover: %v", cutShard, cutGen, cut, err)
		}
		return rec, info
	}

	expectPreMigration := func(t *testing.T, rec *Router, info *RecoveryInfo, label string) {
		t.Helper()
		if info.TopologyVersion != 1 || rec.NumShards() != oldShards {
			t.Fatalf("%s: recovered v%d with %d shards, want the pre-migration router", label, info.TopologyVersion, rec.NumShards())
		}
		got := allEvents(t, rec)
		if !reflect.DeepEqual(got, preEvents) {
			t.Fatalf("%s: %d events, want the full pre-migration stream (%d)", label, len(got), len(preEvents))
		}
		if gs := rec.StatsAll(nil); !reflect.DeepEqual(gs, preStats) {
			t.Fatalf("%s: stats diverge from pre-migration snapshot:\n got %+v\nwant %+v", label, gs, preStats)
		}
	}

	expectPostPrefix := func(t *testing.T, rec *Router, info *RecoveryInfo, cutShard int, label string) {
		t.Helper()
		if info.TopologyVersion != 2 || rec.NumShards() != newShards {
			t.Fatalf("%s: recovered v%d with %d shards, want the post-migration router", label, info.TopologyVersion, rec.NumShards())
		}
		if oc := rec.OldestCursor(); oc != seqBase {
			t.Fatalf("%s: oldest cursor = %d, want the checkpoint base %d", label, oc, seqBase)
		}
		recByShard := make(map[int][]Event)
		for _, ev := range eventsFrom(t, rec, seqBase) {
			recByShard[ev.Shard] = append(recByShard[ev.Shard], ev)
		}
		for o := 0; o < newShards; o++ {
			got, want := recByShard[o], postByShard[o]
			if o != cutShard && len(got) != len(want) {
				t.Fatalf("%s: untouched shard %d has %d events, want %d", label, o, len(got), len(want))
			}
			if len(got) > len(want) {
				t.Fatalf("%s: shard %d has %d events, full run had %d", label, o, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: shard %d event %d = %+v, want %+v", label, o, i, got[i], want[i])
				}
			}
		}
	}

	// Sweep the checkpoint generation.
	cuts := 0
	for s := 0; s < newShards; s++ {
		bounds := frameBoundaries(g2[s])
		for _, cut := range bounds {
			rec, info := boot(t, s, cut, 2)
			label := fmt.Sprintf("g2 shard %d cut %d", s, cut)
			if s == 0 && cut < sealEnd {
				expectPreMigration(t, rec, info, label)
			} else {
				expectPostPrefix(t, rec, info, s, label)
			}
			// Whatever state it landed in, it serves.
			if _, _, err := rec.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Patience: 5}); err != nil {
				t.Fatalf("%s: post-recovery admission: %v", label, err)
			}
			rec.WALClose()
			cuts++
		}
		// Torn mid-frame cuts ride the same two-state contract.
		for k := 1; k < len(bounds); k += len(bounds)/4 + 1 {
			mid := (bounds[k-1] + bounds[k]) / 2
			if mid <= bounds[k-1] {
				continue
			}
			rec, info := boot(t, s, mid, 2)
			label := fmt.Sprintf("g2 shard %d torn cut %d", s, mid)
			if s == 0 && mid < sealEnd {
				// The torn generation is unsealed and skipped whole, so its
				// dropped tail is never even counted.
				expectPreMigration(t, rec, info, label)
			} else {
				if info.TornBytes == 0 {
					t.Fatalf("%s: no torn bytes reported", label)
				}
				expectPostPrefix(t, rec, info, s, label)
			}
			rec.WALClose()
			cuts++
		}
	}

	// Cutting the superseded generation under an intact seal is harmless:
	// the checkpoint carries the complete post-migration state.
	for s := 0; s < oldShards; s++ {
		bounds := frameBoundaries(g1[s])
		for _, cut := range []int{0, bounds[len(bounds)/2], bounds[len(bounds)-1]} {
			rec, info := boot(t, s, cut, 1)
			label := fmt.Sprintf("g1 shard %d cut %d", s, cut)
			expectPostPrefix(t, rec, info, -1, label)
			if gs := rec.StatsAll(nil); !reflect.DeepEqual(gs, fullStats) {
				t.Fatalf("%s: stats diverge from the full run", label)
			}
			if rec.Cursor() != fullCursor {
				t.Fatalf("%s: cursor = %d, want %d", label, rec.Cursor(), fullCursor)
			}
			rec.WALClose()
			cuts++
		}
	}
	t.Logf("swept %d crash points across %d+%d shard segments", cuts, oldShards, newShards)
}
