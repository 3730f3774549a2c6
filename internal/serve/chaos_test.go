// In-process chaos soak: the full wire path — resilient clients, the
// hardened listener and its dedup windows — behind an adversarial
// network (internal/netfault: latency, resets, stalls, partitions). The
// gate is the exactly-once invariant: every acknowledged admission
// appears in the merged event stream exactly once (matched or expired),
// nothing unacknowledged appears, and none of the injected faults count
// as protocol errors.
package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"ftoa/internal/netfault"
	"ftoa/internal/wire"
)

// chaosEndpoint identifies one admitted object by its receipt; with
// retirement disabled handles are never reused, so it is unique for the
// run.
type chaosEndpoint struct {
	worker       bool
	shard, local uint32
}

// chaosCase is one soak: the server, the fault profile, the client
// template and the load each of four clients sends through the proxy.
type chaosCase struct {
	name  string
	cfg   Config
	proxy func(target string) netfault.Config
	// manual swaps the tick loop for a test-driven clock, jumped past
	// every window once the load is in; otherwise the tick loop runs and
	// expires the unmatched on its own.
	manual  bool
	retry   wire.RetryConfig // Addr and the subscription fields are filled in
	batches int              // per client
	batch   int
	pace    time.Duration // one batch per pace per client
	window  float64       // patience and expiry of every admission
}

func TestChaosSoakExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	manual := defaultTestConfig() // retirement off
	manual.Shards = [2]int{2, 2}
	// ftoa-serve -shards 2x2 -tick 100ms -retire 0 -retention 1048576
	// behind netfault.SoakProfile, loaded at 2000 admissions/s by four
	// resilient clients sending batches of 64 with 2 s windows: 1.5 s of
	// load by default, 15 s under FTOA_SOAK=1.
	profile := DefaultConfig()
	profile.Shards = [2]int{2, 2}
	profile.Tick = 100 * time.Millisecond
	profile.Retire = 0
	profile.Retention = 1 << 20
	const pace = 128 * time.Millisecond // 64 per batch, 500/s per client
	load := 1500 * time.Millisecond
	if os.Getenv("FTOA_SOAK") != "" {
		load = 15 * time.Second
	}
	for _, tc := range []chaosCase{
		{
			name: "manual-clock",
			cfg:  manual,
			proxy: func(target string) netfault.Config {
				return netfault.Config{
					Target:         target,
					Seed:           42,
					LatencyMin:     time.Millisecond,
					LatencyMax:     5 * time.Millisecond,
					ResetEvery:     250 * time.Millisecond,
					StallEvery:     200 * time.Millisecond,
					StallFor:       40 * time.Millisecond,
					PartitionEvery: time.Second,
					PartitionFor:   120 * time.Millisecond,
				}
			},
			manual:  true,
			retry:   wire.RetryConfig{RequestTimeout: 2 * time.Second, BackoffBase: 5 * time.Millisecond},
			batches: 12,
			batch:   16,
			pace:    20 * time.Millisecond,
			window:  5,
		},
		{
			name:    "soak-profile",
			cfg:     profile,
			proxy:   func(target string) netfault.Config { return netfault.SoakProfile(target, 7) },
			batches: int(load / pace),
			batch:   64,
			pace:    pace,
			window:  2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) { chaosSoak(t, tc) })
	}
}

func chaosSoak(t *testing.T, tc chaosCase) {
	srv, err := New(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var set func(float64)
	if tc.manual {
		set = manualClock(srv)
		set(0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.StartWire(ln)
	if !tc.manual {
		srv.StartTick()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx, nil)
	})

	proxy, err := netfault.New(tc.proxy(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	rc := tc.retry
	rc.Addr = proxy.Addr().String()

	// The verifier subscription rides the same chaotic path, exercising
	// cursor resumption across resets.
	var vmu sync.Mutex
	tally := soakTally{acked: make(map[chaosEndpoint]int), seen: make(map[chaosEndpoint]int)}
	sc := rc
	sc.Subscribe = true
	sc.SubscribeSince = 0 // the stream's origin: every terminal event of the run
	sc.OnEvents = func(_ uint64, evs []wire.Event) {
		vmu.Lock()
		for i := range evs {
			if evs[i].Worker >= 0 {
				tally.seen[chaosEndpoint{true, uint32(evs[i].WorkerShard), uint32(evs[i].Worker)}]++
			}
			if evs[i].Task >= 0 {
				tally.seen[chaosEndpoint{false, uint32(evs[i].TaskShard), uint32(evs[i].Task)}]++
			}
		}
		vmu.Unlock()
	}
	sc.OnGone = func(uint64) {
		vmu.Lock()
		tally.gone++
		vmu.Unlock()
	}
	sub := wire.NewRetrier(sc)
	t.Cleanup(sub.Close)

	// Load: resilient clients admitting through the proxy, paced so the
	// run outlives several reset/stall/partition cycles.
	const clients = 4
	var resends uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := wire.NewRetrier(rc)
			defer r.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			var acked []chaosEndpoint
			defer func() {
				vmu.Lock()
				for _, ep := range acked {
					tally.acked[ep]++
				}
				tally.reconnects += r.Reconnects()
				resends += r.Resends()
				vmu.Unlock()
			}()
			next := time.Now()
			for b := 0; b < tc.batches; b++ {
				reqs := make([]wire.Request, tc.batch)
				for i := range reqs {
					reqs[i] = wire.Request{
						Kind:   wire.ReqAddWorker,
						X:      rng.Float64() * 100,
						Y:      rng.Float64() * 100,
						At:     nan(),
						Window: tc.window,
					}
					if i%2 == 1 {
						reqs[i].Kind = wire.ReqAddTask
					}
				}
				res, err := r.Do(reqs)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				for i := range res {
					switch res[i].Status {
					case wire.StatusOK:
						acked = append(acked, chaosEndpoint{
							worker: res[i].Kind == wire.ReqAddWorker,
							shard:  res[i].Shard,
							local:  res[i].Local,
						})
					case wire.StatusBusy:
						// Backpressure, not a fault; the entry was never
						// admitted and must not appear in the stream.
					default:
						t.Errorf("client %d admission error: %+v", c, res[i])
					}
				}
				next = next.Add(tc.pace)
				time.Sleep(time.Until(next))
			}
		}(c)
	}
	wg.Wait()

	// Expire everything unmatched (the manual clock jumps past every
	// window; the tick loop gets there by itself) and drive advances
	// through the chaotic path until the stream has shown every acked
	// endpoint a terminal event.
	if tc.manual {
		set(100)
	}
	missing := func() int {
		vmu.Lock()
		defer vmu.Unlock()
		return tally.missing()
	}
	for deadline := time.Now().Add(60 * time.Second); missing() > 0 && time.Now().Before(deadline); {
		if _, err := sub.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
			t.Fatalf("advance through chaos: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// A short drain so stragglers (duplicates would be stragglers too)
	// reach the verifier before scoring.
	time.Sleep(300 * time.Millisecond)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		Wire struct {
			ProtocolErrors uint64 `json:"protocol_errors"`
			Deduped        uint64 `json:"deduped"`
		} `json:"wire"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if st.Wire.ProtocolErrors != 0 {
		t.Errorf("injected network faults counted as %d protocol errors", st.Wire.ProtocolErrors)
	}
	vmu.Lock()
	defer vmu.Unlock()
	tally.reconnects += sub.Reconnects()
	tally.resets = proxy.Stats().Resets
	tally.score(t)
	t.Logf("chaos soak: %d acked, %d stream endpoints, %d reconnects, %d resends, %d deduped, stats %+v",
		len(tally.acked), len(tally.seen), tally.reconnects, resends, st.Wire.Deduped, proxy.Stats())
}

// soakTally is what a soak observed: receipts handed out, terminal events
// per endpoint in the merged stream, retention overruns, and how hard the
// chaos bit (client reconnects, proxy resets).
type soakTally struct {
	acked, seen map[chaosEndpoint]int
	gone        int
	reconnects  uint64
	resets      uint64
}

// missing counts acked endpoints not yet seen terminal.
func (s *soakTally) missing() int {
	n := 0
	for ep := range s.acked {
		if s.seen[ep] == 0 {
			n++
		}
	}
	return n
}

// score is the exactly-once verdict every soak shares: admissions were
// acknowledged, no receipt twice; every acked endpoint terminal exactly
// once and nothing unacknowledged terminal; the subscription never
// overran retention; and the faults actually struck — some client
// reconnected and the proxy reset at least one connection.
func (s *soakTally) score(t *testing.T) {
	t.Helper()
	if len(s.acked) == 0 {
		t.Error("no admission survived the chaos — the soak exercised nothing")
	}
	for ep, n := range s.acked {
		if n > 1 {
			t.Errorf("endpoint %+v acknowledged %d times", ep, n)
		}
	}
	if n := s.missing(); n > 0 {
		t.Errorf("%d of %d acked endpoints never reached a terminal event", n, len(s.acked))
	}
	for ep, n := range s.seen {
		if n != 1 {
			t.Errorf("endpoint %+v terminal %d times, want exactly once", ep, n)
		}
		if s.acked[ep] == 0 {
			t.Errorf("endpoint %+v terminal but never acknowledged (a lost-ack resend re-executed)", ep)
		}
	}
	if s.gone != 0 {
		t.Errorf("subscription overran retention %d times", s.gone)
	}
	if s.reconnects == 0 {
		t.Error("no client ever reconnected: the chaos schedule never bit")
	}
	if s.resets == 0 {
		t.Error("the proxy never reset a connection")
	}
}
