// In-process chaos soak: the full wire path — resilient clients, the
// hardened listener and its dedup windows — behind an adversarial
// network (internal/netfault: latency, resets, stalls, partitions). The
// gate is the exactly-once invariant: every acknowledged admission
// appears in the merged event stream exactly once (matched or expired),
// nothing unacknowledged appears, and none of the injected faults count
// as protocol errors.
package serve

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ftoa/internal/netfault"
	"ftoa/internal/wire"
)

// chaosEndpoint identifies one admitted object by its receipt; with
// retirement disabled (defaultTestConfig) handles are never reused, so
// it is unique for the run.
type chaosEndpoint struct {
	worker       bool
	shard, local uint32
}

func TestChaosSoakExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := defaultTestConfig()
	cfg.Shards = [2]int{2, 2}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := manualClock(srv)
	set(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.StartWire(ln)
	ws := srv.wire
	t.Cleanup(ws.close)

	proxy, err := netfault.New(netfault.Config{
		Target:         ln.Addr().String(),
		Seed:           42,
		LatencyMin:     time.Millisecond,
		LatencyMax:     5 * time.Millisecond,
		ResetEvery:     250 * time.Millisecond,
		StallEvery:     200 * time.Millisecond,
		StallFor:       40 * time.Millisecond,
		PartitionEvery: time.Second,
		PartitionFor:   120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	addr := proxy.Addr().String()

	// The verifier subscription rides the same chaotic path, exercising
	// cursor resumption across resets.
	var vmu sync.Mutex
	seen := make(map[chaosEndpoint]int)
	var gone int
	sub := wire.NewRetrier(wire.RetryConfig{
		Addr:           addr,
		RequestTimeout: 2 * time.Second,
		BackoffBase:    5 * time.Millisecond,
		Subscribe:      true,
		SubscribeSince: 0,
		OnEvents: func(_ uint64, evs []wire.Event) {
			vmu.Lock()
			for i := range evs {
				if evs[i].Worker >= 0 {
					seen[chaosEndpoint{true, uint32(evs[i].WorkerShard), uint32(evs[i].Worker)}]++
				}
				if evs[i].Task >= 0 {
					seen[chaosEndpoint{false, uint32(evs[i].TaskShard), uint32(evs[i].Task)}]++
				}
			}
			vmu.Unlock()
		},
		OnGone: func(uint64) {
			vmu.Lock()
			gone++
			vmu.Unlock()
		},
	})
	t.Cleanup(sub.Close)

	// Load: resilient clients admitting through the proxy, paced so the
	// run outlives several reset/stall/partition cycles.
	const (
		clients    = 4
		batches    = 12
		batchSize  = 16
		totalAdmit = clients * batches * batchSize
	)
	ackedCh := make(chan []chaosEndpoint, clients)
	var totalReconnects, totalResends uint64
	var rmu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := wire.NewRetrier(wire.RetryConfig{
				Addr:           addr,
				RequestTimeout: 2 * time.Second,
				BackoffBase:    5 * time.Millisecond,
			})
			defer func() {
				rmu.Lock()
				totalReconnects += r.Reconnects()
				totalResends += r.Resends()
				rmu.Unlock()
				r.Close()
			}()
			rng := rand.New(rand.NewSource(int64(c)))
			var acked []chaosEndpoint
			for b := 0; b < batches; b++ {
				reqs := make([]wire.Request, batchSize)
				for i := range reqs {
					reqs[i] = wire.Request{
						Kind:   wire.ReqAddWorker,
						X:      rng.Float64() * 100,
						Y:      rng.Float64() * 100,
						At:     nan(),
						Window: 5,
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
				time.Sleep(20 * time.Millisecond)
			}
			ackedCh <- acked
		}(c)
	}
	wg.Wait()
	close(ackedCh)
	acked := make(map[chaosEndpoint]int)
	for batch := range ackedCh {
		for _, ep := range batch {
			if acked[ep]++; acked[ep] > 1 {
				t.Errorf("endpoint %+v acknowledged twice", ep)
			}
		}
	}
	if len(acked) == 0 {
		t.Fatal("no admission survived the chaos — the soak exercised nothing")
	}

	// Expire everything unmatched (window 5s, clock jumps to 100) and
	// drive advances through the chaotic path until the stream has shown
	// every acked endpoint a terminal event.
	set(100)
	missing := func() int {
		vmu.Lock()
		defer vmu.Unlock()
		n := 0
		for ep := range acked {
			if seen[ep] == 0 {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(60 * time.Second)
	for missing() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d acked endpoints never reached a terminal event", missing(), len(acked))
		}
		if _, err := sub.Do([]wire.Request{{Kind: wire.ReqAdvance}}); err != nil {
			t.Fatalf("advance through chaos: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// A short drain so stragglers (duplicates would be stragglers too)
	// reach the verifier before scoring.
	time.Sleep(300 * time.Millisecond)

	vmu.Lock()
	defer vmu.Unlock()
	for ep, n := range seen {
		if n != 1 {
			t.Errorf("endpoint %+v terminal %d times, want exactly once", ep, n)
		}
		if acked[ep] == 0 {
			t.Errorf("endpoint %+v terminal but never acknowledged (a lost-ack resend re-executed)", ep)
		}
	}
	if gone != 0 {
		t.Errorf("subscription overran retention %d times", gone)
	}
	if ws.protoErr.Load() != 0 {
		t.Errorf("injected network faults counted as %d protocol errors", ws.protoErr.Load())
	}
	rmu.Lock()
	recon, resend := totalReconnects, totalResends
	rmu.Unlock()
	recon += sub.Reconnects()
	if recon == 0 {
		t.Errorf("no client ever reconnected: the chaos schedule (resets every ~250ms over a %d-admission run) never bit", totalAdmit)
	}
	t.Logf("chaos soak: %d acked, %d stream endpoints, %d reconnects, %d resends, %d deduped, stats %+v",
		len(acked), len(seen), recon, resend, ws.deduped.Load(), proxy.Stats())
}
