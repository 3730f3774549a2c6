package shard

import (
	"errors"
	"sync"
	"testing"

	"ftoa/internal/faultfs"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
	"ftoa/internal/workload"
)

// ringFeed pushes one trace arrival through the admitter, failing the test
// on a BUSY refusal (ring tests size their rings to never fill).
func ringFeed(t *testing.T, a *Admitter, ev model.Event, in *model.Instance, res *AdmitResult, wg *sync.WaitGroup) {
	t.Helper()
	var ok bool
	switch ev.Kind {
	case model.WorkerArrival:
		ok = a.AddWorker(in.Workers[ev.Index], res, wg)
	case model.TaskArrival:
		ok = a.AddTask(in.Tasks[ev.Index], res, wg)
	}
	if !ok {
		t.Fatal("admitter refused an enqueue (ring sized too small for test)")
	}
}

// TestAdmitterSingleShardParity: on a 1×1 grid, trace replay through the
// ring is bit-identical — events, sequence numbers, stats — to per-call
// admission of the same trace. A single producer's enqueue order is the
// trace order, and the drainer's stable timestamp sort preserves it, so
// the admission sequence (and everything downstream) must match exactly.
func TestAdmitterSingleShardParity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 200, 200
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Router {
		r, err := NewRouter(Config{
			Matcher:      sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
			Cols:         1,
			Rows:         1,
			NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	direct, ringed := mk(), mk()
	events := in.Events()
	for _, ev := range events {
		switch ev.Kind {
		case model.WorkerArrival:
			if _, _, err := direct.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			if _, _, err := direct.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
	}

	adm := NewAdmitter(ringed, AdmitterConfig{Ring: 1024, Batch: 64})
	res := make([]AdmitResult, len(events))
	var wg sync.WaitGroup
	for i, ev := range events {
		ringFeed(t, adm, ev, in, &res[i], &wg)
	}
	wg.Wait()
	adm.Close()
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("ring admission %d: %v", i, res[i].Err)
		}
	}

	direct.Finish()
	ringed.Finish()
	expectParity(t, ringed, direct, "ring vs direct")
	if adm.BusyTotal() != 0 {
		t.Fatalf("BusyTotal = %d on an oversized ring", adm.BusyTotal())
	}
}

// TestAdmitterMultiShardParity: on a disjoint 2×2 grid with one producer,
// each shard's event stream through the ring matches per-call admission
// exactly, modulo the global sequence numbers (whose interleaving across
// concurrently draining shards is scheduling-dependent by design).
func TestAdmitterMultiShardParity(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 300, 300
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Router {
		r, err := NewRouter(Config{
			Matcher:      sim.MatcherConfig{Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds},
			Cols:         2,
			Rows:         2,
			NewAlgorithm: func() sim.Algorithm { return &greedyAlg{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	direct, ringed := mk(), mk()
	events := in.Events()
	for _, ev := range events {
		switch ev.Kind {
		case model.WorkerArrival:
			if _, _, err := direct.AddWorker(in.Workers[ev.Index]); err != nil {
				t.Fatal(err)
			}
		case model.TaskArrival:
			if _, _, err := direct.AddTask(in.Tasks[ev.Index]); err != nil {
				t.Fatal(err)
			}
		}
	}
	adm := NewAdmitter(ringed, AdmitterConfig{Ring: 2048, Batch: 64})
	res := make([]AdmitResult, len(events))
	var wg sync.WaitGroup
	for i, ev := range events {
		ringFeed(t, adm, ev, in, &res[i], &wg)
	}
	wg.Wait()
	adm.Close()
	direct.Finish()
	ringed.Finish()

	perShard := func(r *Router) [][]Event {
		out := make([][]Event, r.NumShards())
		for _, ev := range allEvents(t, r) {
			ev.Seq = 0
			out[ev.Shard] = append(out[ev.Shard], ev)
		}
		return out
	}
	ds, rs := perShard(direct), perShard(ringed)
	for s := range ds {
		if len(ds[s]) != len(rs[s]) {
			t.Fatalf("shard %d: ring stream has %d events, direct %d", s, len(rs[s]), len(ds[s]))
		}
		for i := range ds[s] {
			if ds[s][i] != rs[s][i] {
				t.Fatalf("shard %d event %d: ring %+v, direct %+v", s, i, rs[s][i], ds[s][i])
			}
		}
	}
}

// TestAdmitterBatchesSorted: under many concurrent producers feeding
// out-of-order timestamps, every batch the drainers admit is sorted by
// arrival time. Run with -race, this is also the ring's publication-safety
// test.
func TestAdmitterBatchesSorted(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	batches := 0
	maxBatch := 0
	seen := 0
	adm := NewAdmitter(r, AdmitterConfig{Ring: 4096, Batch: 32})
	adm.onBatch = func(shard int, ops []*AdmitResult) {
		mu.Lock()
		defer mu.Unlock()
		batches++
		seen += len(ops)
		if len(ops) > maxBatch {
			maxBatch = len(ops)
		}
		for i := 1; i < len(ops); i++ {
			if ops[i-1].op.ad.at > ops[i].op.ad.at {
				t.Errorf("shard %d batch not time-sorted at %d: %v > %v",
					shard, i, ops[i-1].op.ad.at, ops[i].op.ad.at)
				return
			}
		}
	}

	const producers = 8
	const perProducer = 400
	res := make([][]AdmitResult, producers)
	var wg sync.WaitGroup // admission completions
	var pw sync.WaitGroup // producer goroutines
	for p := 0; p < producers; p++ {
		res[p] = make([]AdmitResult, perProducer)
		pw.Add(1)
		go func(p int) {
			defer pw.Done()
			g := lcg(1000 + p)
			for i := 0; i < perProducer; i++ {
				w := model.Worker{
					ID:       p*perProducer + i,
					Loc:      geo.Point{X: g.f() * 100, Y: g.f() * 100},
					Arrive:   g.f() * 50, // deliberately unsorted
					Patience: 1000,
				}
				if !adm.AddWorker(w, &res[p][i], &wg) {
					t.Error("refused on an oversized ring")
					return
				}
			}
		}(p)
	}
	pw.Wait()
	wg.Wait()
	adm.Close()
	for p := range res {
		for i := range res[p] {
			if res[p][i].Err != nil {
				t.Fatalf("producer %d op %d: %v", p, i, res[p][i].Err)
			}
		}
	}
	if seen != producers*perProducer {
		t.Fatalf("drainers saw %d admissions, enqueued %d", seen, producers*perProducer)
	}
	total := 0
	for s := 0; s < r.NumShards(); s++ {
		total += r.ShardStats(s).Workers
	}
	if total != producers*perProducer {
		t.Fatalf("admitted %d workers, want %d", total, producers*perProducer)
	}
	t.Logf("batches=%d max=%d", batches, maxBatch)
}

// TestAdmitterBatchesStable: the drainers' sort is stable. One producer
// enqueues arrivals whose stamps take only three values, scrambled, while
// every drainer is held in its first batch, so the lanes fill and drain in
// full batches. In every batch, admissions with equal stamps keep their
// enqueue order — the order trace replay relies on.
func TestAdmitterBatchesStable(t *testing.T) {
	r, err := NewRouter(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var mu sync.Mutex
	batches, seen := 0, 0
	adm := NewAdmitter(r, AdmitterConfig{Ring: 4096, Batch: 64})
	adm.onBatch = func(shard int, ops []*AdmitResult) {
		<-release
		mu.Lock()
		defer mu.Unlock()
		batches++
		seen += len(ops)
		for i := 1; i < len(ops); i++ {
			p, q := &ops[i-1].op.ad, &ops[i].op.ad
			if p.at > q.at || p.at == q.at && p.id > q.id {
				t.Errorf("shard %d batch of %d: admission %d (at %v) drained before %d (at %v)",
					shard, len(ops), p.id, p.at, q.id, q.at)
				return
			}
		}
	}
	const n = 2000
	res := make([]AdmitResult, n)
	var wg sync.WaitGroup
	g := lcg(7)
	for i := range res {
		// The ID is the enqueue index.
		w := model.Worker{ID: i, Loc: geo.Point{X: g.f() * 100, Y: g.f() * 100}, Arrive: float64(int(g.f() * 3)), Patience: 1000}
		if !adm.AddWorker(w, &res[i], &wg) {
			t.Fatal("refused on an oversized ring")
		}
	}
	close(release)
	wg.Wait()
	adm.Close()
	if seen != n || batches > n/8 {
		t.Fatalf("drainers saw %d admissions in %d batches, want %d in full batches", seen, batches, n)
	}
}

// TestAdmitterBusy: a full ring refuses the enqueue immediately — no
// blocking — leaves res/wg untouched, and counts the refusal.
func TestAdmitterBusy(t *testing.T) {
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 8)
	block := make(chan struct{})
	adm := NewAdmitter(r, AdmitterConfig{Ring: 1, Batch: 1})
	adm.onBatch = func(int, []*AdmitResult) {
		entered <- struct{}{}
		<-block
	}
	var wg sync.WaitGroup
	w := model.Worker{Loc: geo.Pt(50, 50), Patience: 100}
	res := make([]AdmitResult, 4)
	if !adm.AddWorker(w, &res[0], &wg) {
		t.Fatal("first enqueue refused")
	}
	<-entered // drainer holds op 0; the ring (capacity 2) is empty again
	if !adm.AddWorker(w, &res[1], &wg) || !adm.AddWorker(w, &res[2], &wg) {
		t.Fatal("enqueue refused with free slots")
	}
	if adm.AddWorker(w, &res[3], &wg) {
		t.Fatal("enqueue accepted on a full ring")
	}
	if adm.Busy(0) != 1 || adm.BusyTotal() != 1 {
		t.Fatalf("Busy = %d/%d, want 1/1", adm.Busy(0), adm.BusyTotal())
	}
	close(block)
	wg.Wait()
	adm.Close()
	for i := 0; i < 3; i++ {
		if res[i].Err != nil {
			t.Fatalf("accepted admission %d errored: %v", i, res[i].Err)
		}
	}
	if st := r.ShardStats(0); st.Workers != 3 {
		t.Fatalf("admitted %d workers, want 3 (the refused one must not land)", st.Workers)
	}
	// Closed admitter refuses without counting a ring-full.
	if adm.AddWorker(w, &res[3], &wg) {
		t.Fatal("enqueue accepted after Close")
	}
	if adm.BusyTotal() != 1 {
		t.Fatalf("post-close refusal counted as busy: %d", adm.BusyTotal())
	}
}

// TestAdmitterWALRecoveryParity: with halo mirroring, retirement, platform
// withdrawals and the ring all enabled, recovery from the WAL reproduces
// the live router bit-for-bit. The ring's drainer interleaving is
// scheduling-dependent, so the oracle is the live router itself — the WAL
// records the outcomes that actually happened, and replay must reproduce
// exactly those.
func TestAdmitterWALRecoveryParity(t *testing.T) {
	fs := faultfs.New()
	cfg := walTestConfig(2, 2, 12, fs)
	live, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adm := NewAdmitter(live, AdmitterConfig{Ring: 1024, Batch: 32})

	ops := genWalOps(500, 7)
	var wg sync.WaitGroup
	var receipts []struct {
		res  *AdmitResult
		task bool
	}
	flush := func() { wg.Wait() }
	for _, op := range ops {
		switch op.kind {
		case 'w':
			res := &AdmitResult{}
			if !adm.AddWorker(op.w, res, &wg) {
				t.Fatal("refused on an oversized ring")
			}
			receipts = append(receipts, struct {
				res  *AdmitResult
				task bool
			}{res, false})
		case 't':
			res := &AdmitResult{}
			if !adm.AddTask(op.t, res, &wg) {
				t.Fatal("refused on an oversized ring")
			}
			receipts = append(receipts, struct {
				res  *AdmitResult
				task bool
			}{res, true})
		case 'a':
			flush()
			live.Advance(op.now)
		case 'r':
			flush()
			live.Retire(op.horizon)
		}
		// Periodically withdraw an earlier receipt: live objects retract
		// (recording opWithdrawLocal), concluded or stale ones refuse.
		if len(receipts) > 0 && len(receipts)%17 == 0 {
			flush()
			rc := receipts[len(receipts)/2]
			if rc.res.Err == nil {
				var err error
				if rc.task {
					_, err = live.WithdrawTask(rc.res.H, rc.res.Epoch)
				} else {
					_, err = live.WithdrawWorker(rc.res.H, rc.res.Epoch)
				}
				if err != nil && err != ErrStaleHandle {
					t.Fatalf("withdraw: %v", err)
				}
			}
			receipts = receipts[:0]
		}
	}
	flush()
	adm.Close()
	if err := live.WALClose(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	rec, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered {
		t.Fatalf("info = %+v", info)
	}
	expectParity(t, rec, live, "recovered vs live (ring+halo+withdraw)")
	rec.WALClose()
}

// heldAdmitter returns an Admitter over a fresh 1×1 router whose drainer is
// parked inside its first batch — one accepted op — until release is closed,
// so everything enqueued meanwhile stays in the lane.
func heldAdmitter(t *testing.T, cfg AdmitterConfig) (r *Router, adm *Admitter, release chan struct{}) {
	t.Helper()
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release = make(chan struct{})
	held := false // the lane's one drainer is the only goroutine to touch it
	adm = NewAdmitter(r, cfg)
	adm.onBatch = func(int, []*AdmitResult) {
		if !held {
			held = true
			entered <- struct{}{}
			<-release
		}
	}
	var res AdmitResult
	var wg sync.WaitGroup
	if !adm.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Patience: 100}, &res, &wg) {
		t.Fatal("first enqueue refused")
	}
	<-entered
	return r, adm, release
}

// errUntouched marks a result slot no drainer has written.
var errUntouched = errors.New("result slot untouched")

// TestAdmitterCapacity pins the documented rounding: a lane holds
// AdmitterConfig.Ring rounded up to a power of two, never fewer than two,
// and the enqueue after that is refused and counted once.
func TestAdmitterCapacity(t *testing.T) {
	for _, c := range []struct{ ring, holds int }{{1, 2}, {3, 4}, {1024, 1024}} {
		r, adm, release := heldAdmitter(t, AdmitterConfig{Ring: c.ring, Batch: 1})
		var wg sync.WaitGroup
		res := make([]AdmitResult, c.holds+1)
		w := model.Worker{Loc: geo.Pt(50, 50), Patience: 100}
		for i := 0; i < c.holds; i++ {
			if !adm.AddWorker(w, &res[i], &wg) {
				t.Fatalf("Ring %d: enqueue %d of %d refused", c.ring, i+1, c.holds)
			}
		}
		if adm.AddWorker(w, &res[c.holds], &wg) {
			t.Fatalf("Ring %d: enqueue %d accepted", c.ring, c.holds+1)
		}
		if adm.Busy(0) != 1 || adm.BusyTotal() != 1 {
			t.Fatalf("Ring %d: Busy = %d/%d, want 1/1", c.ring, adm.Busy(0), adm.BusyTotal())
		}
		close(release)
		wg.Wait()
		adm.Close()
		if st := r.ShardStats(0); st.Workers != 1+c.holds {
			t.Fatalf("Ring %d: admitted %d workers, want %d", c.ring, st.Workers, 1+c.holds)
		}
	}
}

// TestAdmitterCloseAdmitsQueued: Close is a drain, not a drop. A lane filled
// behind a held drainer is admitted in full when the drainer is released
// into a concurrent Close: every accepted op gets its result and is counted.
func TestAdmitterCloseAdmitsQueued(t *testing.T) {
	const lane = 64
	r, adm, release := heldAdmitter(t, AdmitterConfig{Ring: lane, Batch: 8})
	var wg sync.WaitGroup
	res := make([]AdmitResult, lane)
	for i := range res {
		res[i].Err = errUntouched
		if !adm.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Arrive: float64(lane - i), Patience: 100}, &res[i], &wg) {
			t.Fatalf("enqueue %d of %d refused", i+1, lane)
		}
	}
	go close(release)
	adm.Close()
	wg.Wait()
	seen := map[Handle]bool{}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("queued admission %d: %v", i, res[i].Err)
		}
		seen[res[i].H] = true
	}
	if st := r.ShardStats(0); len(seen) != lane || st.Workers != 1+lane {
		t.Fatalf("%d distinct handles for %d queued ops, %d workers admitted (want %d)", len(seen), lane, st.Workers, 1+lane)
	}
}

// TestAdmitterRefusalLeavesWaitGroupBalanced: a refused enqueue hands
// everything back. Eight producers race for the two slots of a lane whose
// drainer is held; each refusal leaves its WaitGroup waitable at once (a
// count left behind would hang the Wait) and its result slot unwritten, and
// the refusals counted are the refusals seen.
func TestAdmitterRefusalLeavesWaitGroupBalanced(t *testing.T) {
	r, adm, release := heldAdmitter(t, AdmitterConfig{Ring: 2, Batch: 1})
	const producers, attempts = 8, 200
	type queued struct {
		res *AdmitResult
		wg  *sync.WaitGroup
	}
	accepted := make([][]queued, producers)
	var pw sync.WaitGroup
	for p := 0; p < producers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			for i := 0; i < attempts; i++ {
				res := &AdmitResult{Err: errUntouched}
				wg := new(sync.WaitGroup)
				if adm.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Patience: 100}, res, wg) {
					accepted[p] = append(accepted[p], queued{res, wg})
					continue
				}
				wg.Wait()
				if *res != (AdmitResult{Err: errUntouched}) {
					t.Errorf("producer %d: refused enqueue %d wrote its result slot: %+v", p, i, *res)
				}
			}
		}()
	}
	pw.Wait()
	close(release)
	n := 0
	for _, qs := range accepted {
		for _, q := range qs {
			q.wg.Wait()
			if q.res.Err != nil {
				t.Errorf("accepted admission: %v", q.res.Err)
			}
			n++
		}
	}
	adm.Close()
	if n != 2 || adm.Busy(0) != producers*attempts-2 {
		t.Fatalf("%d accepted and %d refused of %d enqueues on a held 2-slot lane", n, adm.Busy(0), producers*attempts)
	}
	if st := r.ShardStats(0); st.Workers != 1+n {
		t.Fatalf("admitted %d workers, want %d", st.Workers, 1+n)
	}
}
