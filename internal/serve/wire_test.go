package serve

import (
	"context"
	"math"
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftoa/internal/wire"
)

// nan marks an admission as "server-stamped" on the wire.
func nan() float64 { return math.NaN() }

// bootWire starts a server with the wire listener on a loopback port and
// returns it plus the dialed client.
func bootWire(t *testing.T, cfg Config) (*Server, *wireServer, *wire.Client, func(float64)) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := manualClock(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.StartWire(ln)
	ws := srv.wire
	t.Cleanup(ws.close)
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, ws, cl, set
}

// TestWireEndToEnd drives the whole wire surface over a real TCP
// connection: handshake, batched admissions (server-stamped and
// validated), clock advance, withdrawal receipts, and event push.
func TestWireEndToEnd(t *testing.T) {
	_, ws, cl, set := bootWire(t, defaultTestConfig())
	set(0)

	if ack := cl.Hello(); ack.Shards != 1 {
		t.Fatalf("hello ack = %+v, want 1 shard", ack)
	}
	var evMu sync.Mutex
	var pushed []wire.Event
	if err := cl.Subscribe(0, func(next uint64, evs []wire.Event) {
		evMu.Lock()
		pushed = append(pushed, evs...)
		evMu.Unlock()
	}, nil); err != nil {
		t.Fatal(err)
	}

	// One batch: a worker, a matching task (both server-stamped via NaN),
	// and an invalid admission that must fail positionally without
	// touching its neighbors.
	res, err := cl.Do([]wire.Request{
		{Kind: wire.ReqAddWorker, X: 10, Y: 10, At: nan(), Window: 300},
		{Kind: wire.ReqAddTask, X: 11, Y: 10, At: nan(), Window: 60},
		{Kind: wire.ReqAddWorker, X: 20, Y: 20, At: nan(), Window: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || res[0].Time != 0 {
		t.Fatalf("worker result = %+v", res[0])
	}
	if res[1].Status != wire.StatusOK {
		t.Fatalf("task result = %+v", res[1])
	}
	if res[2].Status != wire.StatusErr || !strings.Contains(res[2].Msg, "positive") {
		t.Fatalf("invalid admission result = %+v, want StatusErr", res[2])
	}

	// Advance runs against the server's own clock, never the client's.
	set(5)
	res, err = cl.Do([]wire.Request{{Kind: wire.ReqAdvance}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || res[0].Time != 5 {
		t.Fatalf("advance result = %+v, want time 5", res[0])
	}

	// Withdrawal: admit a lone worker, withdraw by receipt, and check the
	// receipt is single-use and epoch-checked.
	res, err = cl.Do([]wire.Request{{Kind: wire.ReqAddWorker, X: 90, Y: 50, At: nan(), Window: 300}})
	if err != nil {
		t.Fatal(err)
	}
	h := res[0]
	res, err = cl.Do([]wire.Request{
		{Kind: wire.ReqWithdrawWorker, Shard: h.Shard, Local: h.Local, Epoch: h.Epoch},
		{Kind: wire.ReqWithdrawWorker, Shard: h.Shard, Local: h.Local, Epoch: h.Epoch},
		{Kind: wire.ReqWithdrawWorker, Shard: h.Shard, Local: h.Local, Epoch: h.Epoch + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || !res[0].Applied {
		t.Fatalf("withdraw = %+v, want applied", res[0])
	}
	if res[1].Status != wire.StatusOK || res[1].Applied {
		t.Fatalf("re-withdraw = %+v, want not applied", res[1])
	}
	if res[2].Status != wire.StatusErr || !strings.Contains(res[2].Msg, "epoch") {
		t.Fatalf("stale-epoch withdraw = %+v, want stale-handle error", res[2])
	}

	// The match from the first batch must arrive on the subscription.
	deadline := time.Now().Add(5 * time.Second)
	for {
		evMu.Lock()
		got := len(pushed) > 0 && pushed[0].Worker == 0 && pushed[0].Task == 0
		evMu.Unlock()
		if got {
			break
		}
		if time.Now().After(deadline) {
			evMu.Lock()
			t.Fatalf("no match event pushed; got %+v", pushed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if b := ws.batches.Load(); b != 4 {
		t.Fatalf("batches = %d, want 4", b)
	}
	if ws.protoErr.Load() != 0 {
		t.Fatalf("protocol errors = %d, want 0", ws.protoErr.Load())
	}
}

// TestWireBusyReply: a refused ring enqueue surfaces to the client as a
// per-entry BUSY result with a retry hint, counted in the wire stats —
// never as an error or a dropped batch.
func TestWireBusyReply(t *testing.T) {
	srv, ws, cl, set := bootWire(t, defaultTestConfig())
	set(0)
	// Closing the admitter makes every enqueue refuse, which is the same
	// surface a full ring produces.
	srv.admitter.Close()
	res, err := cl.Do([]wire.Request{
		{Kind: wire.ReqAddWorker, X: 10, Y: 10, At: nan(), Window: 300},
		{Kind: wire.ReqAdvance},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusBusy || res[0].RetryAfter <= 0 {
		t.Fatalf("refused admission = %+v, want BUSY with retry hint", res[0])
	}
	if res[1].Status != wire.StatusOK {
		t.Fatalf("advance alongside BUSY = %+v, want OK", res[1])
	}
	if got := ws.statsJSON()["busy"].(uint64); got != 1 {
		t.Fatalf("wire busy stat = %d, want 1", got)
	}
}

// TestWireRejectsGarbage: a non-protocol byte stream is counted as a
// protocol error and the connection dropped; the listener survives.
func TestWireRejectsGarbage(t *testing.T) {
	_, ws, cl, _ := bootWire(t, defaultTestConfig())
	raw, err := net.Dial("tcp", ws.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	buf := make([]byte, 256)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := raw.Read(buf); err != nil {
			break // server hung up on the garbage
		}
	}
	raw.Close()
	if ws.protoErr.Load() == 0 {
		t.Fatal("garbage stream not counted as protocol error")
	}
	// The real client still works.
	if _, err := cl.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
		t.Fatalf("healthy connection broken by garbage peer: %v", err)
	}
}

// TestWireUnknownKindIsFatal: a batch whose second entry carries an
// unknown request kind is refused whole at decode — the fatal Error
// frame, one protocol error, and nothing admitted, not even the valid
// first entry.
func TestWireUnknownKindIsFatal(t *testing.T) {
	srv, ws, _, _ := bootWire(t, defaultTestConfig())
	c, err := net.Dial("tcp", ws.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn := wire.NewConn(c)
	cn.ReadTimeout = 5 * time.Second
	if _, err := wire.ClientHandshake(cn, 7); err != nil {
		t.Fatal(err)
	}
	reqs := []wire.Request{
		{Kind: wire.ReqAddWorker, Seq: 1, X: 10, Y: 10, At: nan(), Window: 300},
		{Kind: wire.ReqAddTask, Seq: 2, X: 11, Y: 10, At: nan(), Window: 60},
	}
	first, err := wire.AppendBatch(nil, 1, reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendBatch(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(first)] = 0x7f // the second entry's kind byte
	if err := cn.WriteFrame(payload); err != nil {
		t.Fatal(err)
	}
	p, err := cn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 || p[0] != wire.MsgError {
		t.Fatalf("reply to an unknown kind = %x, want an Error frame", p)
	}
	if err := wire.DecodeError(p); err == nil || !strings.Contains(err.Error(), "0x7f") {
		t.Fatalf("Error frame = %v, want it to name kind 0x7f", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := getJSON(t, ts.URL+"/stats")
	if pe := st["wire"].(map[string]any)["protocol_errors"].(float64); pe != 1 {
		t.Fatalf("protocol_errors = %v, want 1", pe)
	}
	if st["workers"].(float64) != 0 || st["tasks"].(float64) != 0 {
		t.Fatalf("/stats admitted %v workers and %v tasks from a refused batch, want none", st["workers"], st["tasks"])
	}
}

// discardConn is a connection whose writes vanish: handleBatch's reply
// frames go nowhere, so a test can drive it without a peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestHandleBatchAllocations: a warm 64-admission batch through
// handleBatch — dedup lookups, the lane hand-off, the drainers' sort and
// admission on a disjoint 4×4 greedy router, dedup records, the reply —
// allocates at most four times. Mallocs are counted process-wide, so the
// drainers' share is in; what remains is the router's amortized growth
// (arenas, event log segments).
func TestHandleBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled batch scratch at random")
	}
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{4, 4}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background(), nil) })
	set := manualClock(srv)
	ws := &wireServer{s: srv, dedup: wire.NewDedupTable(0, 0)}
	win, err := ws.dedup.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	cn := wire.NewConn(discardConn{})
	const batch, warm, measured = 64, 500, 500
	reqs := make([]wire.Request, batch)
	var payload []byte
	var scratch []wire.Request
	var seq uint64
	rng := rand.New(rand.NewPCG(1, 2))
	run := func(b int) {
		set(float64(b) / 20)
		for i := 0; i < batch; i += 2 {
			// A worker and a task on the same spot: greedy pairs them, so
			// the live population stays small.
			x, y := 1+98*rng.Float64(), 1+98*rng.Float64()
			seq += 2
			reqs[i] = wire.Request{Kind: wire.ReqAddWorker, Seq: seq - 1, X: x, Y: y, At: nan(), Window: 5}
			reqs[i+1] = wire.Request{Kind: wire.ReqAddTask, Seq: seq, X: x, Y: y, At: nan(), Window: 5}
		}
		payload, err = wire.AppendBatch(payload[:0], uint64(b), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if scratch, err = ws.handleBatch(cn, win, payload, scratch[:0]); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < warm; b++ {
		run(b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := warm; b < warm+measured; b++ {
		run(b)
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.2f allocations per %d-admission batch", perBatch, batch)
	if perBatch > 4 {
		t.Errorf("a warm %d-admission batch allocates %.2f times, want at most 4", batch, perBatch)
	}
	if tot := srv.router.Totals(); tot.Workers+tot.Tasks != batch*(warm+measured) || tot.Matches != tot.Workers {
		t.Fatalf("totals %+v after %d admissions, want every pair admitted and matched", tot, batch*(warm+measured))
	}
}

// TestWireSubscribeAheadOfRestartedServer: a Retrier resumes its
// subscription against a server that restarted without a WAL, so the
// sequence counter is back at 0 while the client's cursor is 3. The
// server must answer EventsGone(head) and stream from the head — a
// subscription left parked at cursor 3 would deliver nothing until the
// new lifetime re-issued seq 3, silently dropping 0..2.
func TestWireSubscribeAheadOfRestartedServer(t *testing.T) {
	boot := func() (*wireServer, string) {
		srv, err := New(defaultTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		manualClock(srv)(0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.StartWire(ln)
		ws := srv.wire
		t.Cleanup(ws.close)
		return ws, ln.Addr().String()
	}
	first, addr := boot()
	var mu sync.Mutex
	var seqs, gone []uint64
	r := wire.NewRetrier(wire.RetryConfig{
		Dial: func() (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			return net.Dial("tcp", addr)
		},
		BackoffBase:    5 * time.Millisecond,
		Subscribe:      true,
		SubscribeSince: 0,
		OnEvents: func(_ uint64, evs []wire.Event) {
			mu.Lock()
			for i := range evs {
				seqs = append(seqs, evs[i].Seq)
			}
			mu.Unlock()
		},
		OnGone: func(oldest uint64) {
			mu.Lock()
			gone = append(gone, oldest)
			mu.Unlock()
		},
	})
	t.Cleanup(r.Close)
	matches := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, err := r.Do([]wire.Request{
				{Kind: wire.ReqAddWorker, X: 10, Y: 10, At: nan(), Window: 300},
				{Kind: wire.ReqAddTask, X: 11, Y: 10, At: nan(), Window: 60},
			})
			if err != nil || res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK {
				t.Fatalf("admitting pair %d: %+v, %v", i, res, err)
			}
		}
	}
	await := func(what string, want []uint64, got *[]uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			cur := append([]uint64(nil), *got...)
			mu.Unlock()
			if len(cur) >= len(want) || time.Now().After(deadline) {
				if len(cur) != len(want) {
					t.Fatalf("%s = %v, want %v", what, cur, want)
				}
				for i := range want {
					if cur[i] != want[i] {
						t.Fatalf("%s = %v, want %v", what, cur, want)
					}
				}
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	matches(3)
	await("events before the restart", []uint64{0, 1, 2}, &seqs)

	// Restart: a new server lifetime on a new port, Seq back at 0.
	_, addr2 := boot()
	mu.Lock()
	addr = addr2
	mu.Unlock()
	first.close()
	matches(2)
	await("EventsGone after the restart", []uint64{0}, &gone)
	await("events across the restart", []uint64{0, 1, 2, 0, 1}, &seqs)
}

// TestWireHostileTimestamps: an admission stamped ahead of the server's
// clock — +Inf, or merely the future — is admitted at the server's now, so
// no client can drag a shard's clock forward and expire everyone else's
// objects; non-finite coordinates are refused per entry.
func TestWireHostileTimestamps(t *testing.T) {
	srv, _, cl, set := bootWire(t, defaultTestConfig())
	set(10)
	res, err := cl.Do([]wire.Request{
		{Kind: wire.ReqAddTask, X: 50, Y: 50, At: nan(), Window: 5}, // a bystander, admitted at 10, out of the others' reach
		{Kind: wire.ReqAddWorker, X: 90, Y: 90, At: math.Inf(1), Window: 300},
		{Kind: wire.ReqAddWorker, X: 90, Y: 10, At: 1e9, Window: 300},
		{Kind: wire.ReqAddWorker, X: math.NaN(), Y: 10, At: nan(), Window: 300},
		{Kind: wire.ReqAddTask, X: 10, Y: math.Inf(-1), At: nan(), Window: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res[:3] {
		if r.Status != wire.StatusOK || r.Time != 10 {
			t.Fatalf("admission %d = %+v, want OK at the server's time 10", i, r)
		}
	}
	for i, r := range res[3:] {
		if r.Status != wire.StatusErr || !strings.Contains(r.Msg, "finite") {
			t.Fatalf("non-finite coordinate %d = %+v, want StatusErr", i, r)
		}
	}
	// The shard's clock is still the server's: one second later a worker
	// next to the bystander task is admitted at 11 and serves it — the
	// task has not expired, and nothing is stamped +Inf.
	set(11)
	res, err = cl.Do([]wire.Request{{Kind: wire.ReqAddWorker, X: 51, Y: 50, At: nan(), Window: 300}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusOK || res[0].Time != 11 {
		t.Fatalf("server-stamped admission after the hostile batch = %+v, want OK at 11", res[0])
	}
	matches, _ := srv.router.MatchesFromOldest(10, nil)
	if len(matches) != 1 || matches[0].Time != 11 || srv.router.Totals().ExpiredTasks != 0 {
		t.Fatalf("matches = %+v with %d expired task(s), want the bystander served at 11", matches, srv.router.Totals().ExpiredTasks)
	}
}
