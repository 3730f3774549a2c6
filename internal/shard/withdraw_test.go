package shard

import (
	"testing"

	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/sim"
)

// TestWithdrawInterior: withdrawing an interior receipt silences the
// object — no expiry event ever fires for it — and repeats are no-ops.
func TestWithdrawInterior(t *testing.T) {
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Arrive: 0, Patience: 10})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.state().shards[0].sess.Epoch()
	if ok, err := r.WithdrawWorker(h, epoch); err != nil || !ok {
		t.Fatalf("WithdrawWorker = %v, %v; want true, nil", ok, err)
	}
	if ok, err := r.WithdrawWorker(h, epoch); err != nil || ok {
		t.Fatalf("second WithdrawWorker = %v, %v; want false, nil", ok, err)
	}
	r.Advance(100)
	if evs := allEvents(t, r); len(evs) != 0 {
		t.Fatalf("withdrawn worker emitted events: %+v", evs)
	}
	if st := r.ShardStats(0); st.WithdrawnWorkers != 1 || st.ExpiredWorkers != 0 {
		t.Fatalf("stats %+v, want 1 withdrawn, 0 expired", st)
	}
}

// TestWithdrawRefusals: invalid receipts error; a matched object refuses
// silently (its lifecycle already concluded).
func TestWithdrawRefusals(t *testing.T) {
	r, err := NewRouter(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	th, _, err := r.AddTask(model.Task{Loc: geo.Pt(50, 50), Release: 0, Expiry: 10})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.state().shards[0].sess.Epoch()
	if _, err := r.WithdrawTask(Handle{Shard: 9, Local: 0}, epoch); err == nil {
		t.Error("unknown shard accepted")
	}
	if _, err := r.WithdrawTask(Handle{Shard: 0, Local: 5}, epoch); err == nil {
		t.Error("out-of-range handle accepted")
	}
	if _, err := r.WithdrawTask(th, epoch+1); err != ErrStaleHandle {
		t.Errorf("wrong epoch: err = %v, want ErrStaleHandle", err)
	}
	// Match the task, then withdraw: refused, nothing changes.
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(50, 51), Arrive: 0, Patience: 10}); err != nil {
		t.Fatal(err)
	}
	if st := r.ShardStats(0); st.Matches != 1 {
		t.Fatalf("setup: %d matches, want 1", st.Matches)
	}
	if ok, err := r.WithdrawTask(th, epoch); err != nil || ok {
		t.Fatalf("withdraw of matched task = %v, %v; want false, nil", ok, err)
	}
}

// TestWithdrawStaleEpoch: a retirement bumps the arena epoch and receipts
// issued before it are refused, even when the handle still looks valid.
func TestWithdrawStaleEpoch(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.NewAlgorithm = func() sim.Algorithm { return &retirableGreedy{} }
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(10, 10), Arrive: 0, Patience: 100})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.state().shards[0].sess.Epoch()
	// A pair that matches at t=0, then a retirement past it: the pair is
	// compacted away, the epoch bumps, and the receipt — though its object
	// is still live — is conservatively refused.
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(50, 50), Arrive: 0, Patience: 100}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddTask(model.Task{Loc: geo.Pt(50, 51), Release: 0, Expiry: 100}); err != nil {
		t.Fatal(err)
	}
	if w, _ := r.Retire(1); w == 0 {
		t.Fatal("setup: retirement dropped nothing")
	}
	if _, err := r.WithdrawWorker(h, epoch); err != ErrStaleHandle {
		t.Fatalf("err = %v, want ErrStaleHandle", err)
	}
}

// TestWithdrawMirrored: withdrawing a border (halo-mirrored) task receipt
// wins the claim word and retracts every ghost copy, so no neighbor session
// can match it afterwards and no expiry fires anywhere. A border worker has
// no ghost to retract: workers are never mirrored.
func TestWithdrawMirrored(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Halo = 10
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On the 50 boundary: owner shard 0 (or 1), mirrored into the other.
	h, _, err := r.AddTask(model.Task{Loc: geo.Pt(49, 50), Release: 0, Expiry: 20})
	if err != nil {
		t.Fatal(err)
	}
	ghostShard := 1 - h.Shard
	if gs := r.ShardStats(ghostShard); gs.GhostTasks != 1 {
		t.Fatalf("setup: ghost shard stats %+v, want 1 ghost task", gs)
	}
	wh, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(49, 10), Arrive: 0, Patience: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gs := r.ShardStats(1 - wh.Shard); gs.GhostWorkers != 0 {
		t.Fatalf("a border worker left a ghost: %+v", gs)
	}
	epoch := r.state().shards[h.Shard].sess.Epoch()
	if ok, err := r.WithdrawTask(h, epoch); err != nil || !ok {
		t.Fatalf("WithdrawTask = %v, %v; want true, nil", ok, err)
	}
	if gs := r.ShardStats(ghostShard); gs.WithdrawnTasks != 1 {
		t.Fatalf("ghost copy not retracted: %+v", gs)
	}
	// A worker in the ghost shard must not match the withdrawn task; with
	// no other tasks around it expires, as does the first worker.
	if _, _, err := r.AddWorker(model.Worker{Loc: geo.Pt(52, 50), Arrive: 1, Patience: 5}); err != nil {
		t.Fatal(err)
	}
	r.Advance(100)
	evs := allEvents(t, r)
	if len(evs) != 2 || evs[0].Kind != sim.EventWorkerExpired || evs[1].Kind != sim.EventWorkerExpired {
		t.Fatalf("events = %+v, want exactly the two worker expiries", evs)
	}
}
