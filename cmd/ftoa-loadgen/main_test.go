package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftoa"
	"ftoa/internal/serve"
	"ftoa/internal/wire"
)

// makeInstance builds a trivial instance for trace-replay tests.
func makeInstance(nw, nt int) *ftoa.Instance {
	in := &ftoa.Instance{Velocity: 1}
	for i := 0; i < nw; i++ {
		in.Workers = append(in.Workers,
			ftoa.Worker{ID: i, Loc: ftoa.Pt(float64(i%90), 50), Arrive: float64(i), Patience: 300})
	}
	for i := 0; i < nt; i++ {
		in.Tasks = append(in.Tasks,
			ftoa.Task{ID: i, Loc: ftoa.Pt(float64(i%90), 51), Release: float64(i), Expiry: 60})
	}
	return in
}

// stubServer answers every batch over real TCP: admissions get OK except
// every busyEvery-th request (1-indexed) which gets BUSY, so tally
// accounting is checkable exactly.
func stubServer(t *testing.T, busyEvery int) (addr string, served *atomic.Uint64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served = new(atomic.Uint64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				cn := wire.NewConn(c)
				if _, err := wire.ServerHandshake(cn, 1, 0); err != nil {
					return
				}
				var reqs []wire.Request
				for {
					p, err := cn.ReadFrame()
					if err != nil || len(p) == 0 || p[0] != wire.MsgBatch {
						return
					}
					id, rs, err := wire.DecodeBatch(p, reqs[:0])
					if err != nil {
						return
					}
					reqs = rs
					results := make([]wire.Result, len(rs))
					for i, rq := range rs {
						n := int(served.Add(1))
						results[i] = wire.Result{Kind: rq.Kind, Status: wire.StatusOK}
						if busyEvery > 0 && n%busyEvery == 0 {
							results[i] = wire.Result{Kind: rq.Kind, Status: wire.StatusBusy, RetryAfter: 0.1}
						}
					}
					if cn.WriteFrame(wire.AppendBatchReply(nil, id, results)) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), served, func() { ln.Close() }
}

func TestRunReportAccounting(t *testing.T) {
	addr, served, stop := stubServer(t, 5)
	defer stop()
	cfg := &genConfig{
		addr:        addr,
		conns:       3,
		duration:    300 * time.Millisecond,
		batch:       16,
		pattern:     "uniform",
		bounds:      [4]float64{0, 0, 100, 100},
		seed:        7,
		workersFrac: 0.5,
		patience:    300,
		expiry:      60,
	}
	rep := run(cfg)
	if rep.ProtoErrors != 0 {
		t.Fatalf("proto errors = %d: %+v", rep.ProtoErrors, rep)
	}
	if rep.Requests == 0 || rep.Requests != served.Load() {
		t.Fatalf("requests = %d, server served %d", rep.Requests, served.Load())
	}
	if rep.Admitted+rep.Busy != rep.Requests || rep.Errors != 0 {
		t.Fatalf("tallies don't add up: %+v", rep)
	}
	// The stub marks exactly every 5th request BUSY.
	if want := rep.Requests / 5; rep.Busy != want {
		t.Fatalf("busy = %d, want %d of %d", rep.Busy, want, rep.Requests)
	}
	if rep.RPS <= 0 || rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("degenerate rates/latencies: %+v", rep)
	}
}

func TestRunTraceReplayExact(t *testing.T) {
	addr, served, stop := stubServer(t, 0)
	defer stop()
	cfg := &genConfig{
		addr:   addr,
		conns:  2,
		batch:  8,
		bounds: [4]float64{0, 0, 100, 100},
	}
	// A tiny instance: every arrival must be sent exactly once even when
	// the count doesn't divide evenly across conns and batches.
	in := makeInstance(37, 23)
	cfg.traceIn = in
	cfg.trace = in.Events()
	rep := run(cfg)
	if want := uint64(37 + 23); rep.Requests != want || served.Load() != want {
		t.Fatalf("requests = %d (server %d), want %d", rep.Requests, served.Load(), want)
	}
	if rep.ProtoErrors != 0 || rep.Admitted != rep.Requests {
		t.Fatalf("trace replay tallies: %+v", rep)
	}
}

func TestSynthesizePatterns(t *testing.T) {
	cfg := &genConfig{
		pattern:     "uniform",
		bounds:      [4]float64{10, 20, 110, 220},
		workersFrac: 0.5,
		patience:    300,
		expiry:      60,
	}
	const n = 4000
	rng := rand.New(rand.NewSource(1))
	reqs := synthesize(cfg, rng, nil, n)
	var workers int
	for _, rq := range reqs {
		if rq.X < 10 || rq.X > 110 || rq.Y < 20 || rq.Y > 220 {
			t.Fatalf("arrival outside bounds: %+v", rq)
		}
		if !math.IsNaN(rq.At) {
			t.Fatalf("synthetic arrival not server-stamped: %+v", rq)
		}
		switch rq.Kind {
		case wire.ReqAddWorker:
			workers++
			if rq.Window != 300 {
				t.Fatalf("worker window = %g", rq.Window)
			}
		case wire.ReqAddTask:
			if rq.Window != 60 {
				t.Fatalf("task window = %g", rq.Window)
			}
		default:
			t.Fatalf("unexpected kind %d", rq.Kind)
		}
	}
	if workers < n/3 || workers > 2*n/3 {
		t.Fatalf("workers = %d of %d, want near half", workers, n)
	}

	// Hotspot: the central 10%x10% square holds ~80% of arrivals (vs ~1%
	// under uniform).
	cfg.pattern = "hotspot"
	reqs = synthesize(cfg, rand.New(rand.NewSource(2)), nil, n)
	var hot int
	for _, rq := range reqs {
		if rq.X >= 55 && rq.X <= 65 && rq.Y >= 109 && rq.Y <= 131 {
			hot++
		}
	}
	if frac := float64(hot) / n; frac < 0.7 {
		t.Fatalf("hotspot fraction = %.2f, want ~0.8", frac)
	}

	// Determinism: same seed, same stream.
	a := synthesize(cfg, rand.New(rand.NewSource(3)), nil, 100)
	b := synthesize(cfg, rand.New(rand.NewSource(3)), nil, 100)
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y || a[i].Kind != b[i].Kind {
			t.Fatalf("seeded synthesis diverged at %d", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 0.5); p != 5 {
		t.Fatalf("p50 = %g", p)
	}
	if p := percentile(s, 0.99); p != 10 {
		t.Fatalf("p99 = %g", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %g", p)
	}
}

// eventStubServer is stubServer plus the event side of the protocol:
// every admission synthesizes one stream event (dense seqs, stamped
// with the stub's clock) pushed to every subscribed connection, and
// Advance answers with the clock — enough surface for the -subscribers
// lag/continuity accounting to be checked exactly.
func eventStubServer(t *testing.T) (addr string, admitted *atomic.Uint64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	now := func() float64 { return time.Since(start).Seconds() }
	admitted = new(atomic.Uint64)
	var seq atomic.Uint64
	type subConn struct {
		cn *wire.Conn
		mu *sync.Mutex
	}
	var smu sync.Mutex
	var subs []subConn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				cn := wire.NewConn(c)
				wmu := &sync.Mutex{}
				if _, err := wire.ServerHandshake(cn, 1, 0); err != nil {
					return
				}
				var reqs []wire.Request
				for {
					p, err := cn.ReadFrame()
					if err != nil || len(p) == 0 {
						return
					}
					switch p[0] {
					case wire.MsgSubscribe:
						smu.Lock()
						subs = append(subs, subConn{cn, wmu})
						smu.Unlock()
					case wire.MsgBatch:
						id, rs, err := wire.DecodeBatch(p, reqs[:0])
						if err != nil {
							return
						}
						reqs = rs
						results := make([]wire.Result, len(rs))
						var evs []wire.Event
						for i, rq := range rs {
							results[i] = wire.Result{Kind: rq.Kind, Status: wire.StatusOK, Time: now()}
							if rq.Kind == wire.ReqAddWorker || rq.Kind == wire.ReqAddTask {
								admitted.Add(1)
								evs = append(evs, wire.Event{
									Seq: seq.Add(1) - 1, Kind: 0,
									Worker: -1, Task: -1, WorkerShard: -1, TaskShard: -1,
									Time: now(),
								})
							}
						}
						wmu.Lock()
						werr := cn.WriteFrame(wire.AppendBatchReply(nil, id, results))
						wmu.Unlock()
						if werr != nil {
							return
						}
						if len(evs) > 0 {
							frame := wire.AppendEvents(nil, evs[len(evs)-1].Seq+1, evs)
							smu.Lock()
							targets := append([]subConn(nil), subs...)
							smu.Unlock()
							for _, sc := range targets {
								sc.mu.Lock()
								sc.cn.WriteFrame(frame)
								sc.mu.Unlock()
							}
						}
					default:
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), admitted, func() { ln.Close() }
}

// TestRunSubscriberReport: -subscribers opens live subscriptions whose
// deliveries are scored for continuity and lag in the JSON report —
// every subscriber sees every event exactly once, gap-free.
func TestRunSubscriberReport(t *testing.T) {
	addr, admitted, stop := eventStubServer(t)
	defer stop()
	cfg := &genConfig{
		addr:        addr,
		conns:       1,
		duration:    300 * time.Millisecond,
		batch:       16,
		pattern:     "uniform",
		bounds:      [4]float64{0, 0, 100, 100},
		seed:        7,
		workersFrac: 0.5,
		patience:    300,
		expiry:      60,
		subscribers: 2,
	}
	rep := run(cfg)
	if rep.ProtoErrors != 0 {
		t.Fatalf("proto errors = %d: %+v", rep.ProtoErrors, rep)
	}
	sr := rep.Subscribers
	if sr == nil || sr.Count != 2 {
		t.Fatalf("subscribers report = %+v, want count 2", sr)
	}
	if want := 2 * admitted.Load(); sr.Events != want {
		t.Fatalf("subscriber deliveries = %d, want %d (2 subscribers x %d events)",
			sr.Events, want, admitted.Load())
	}
	if sr.Gaps != 0 || sr.EventsGone != 0 {
		t.Fatalf("gaps/gone = %d/%d, want clean streams: %+v", sr.Gaps, sr.EventsGone, sr)
	}
	if sr.EventsPerSec <= 0 {
		t.Fatalf("events_per_sec = %v, want positive", sr.EventsPerSec)
	}
	if sr.LagP99Ms < sr.LagP50Ms || sr.LagP99Ms > 5000 {
		t.Fatalf("degenerate lag percentiles: p50 %v p99 %v", sr.LagP50Ms, sr.LagP99Ms)
	}
}

// The wire path end to end: each test below boots the real server in
// process (serve.New at ftoa-serve's flag defaults plus the flags the
// scenario sets, the wire listener and the tick loop on loopback), drives
// it with run over the scenario's ftoa-loadgen command line, and gates
// the report and /stats. By default each runs a short form of a few
// seconds; FTOA_SOAK=1 runs the full length.

// soaking reports FTOA_SOAK=1: run every scenario at full length.
func soaking() bool { return os.Getenv("FTOA_SOAK") != "" }

// soakLength picks the full run length when soaking and the short form
// otherwise.
func soakLength(full, short string) string {
	if soaking() {
		return full
	}
	return short
}

// serveStats is the part of GET /stats the gates read.
type serveStats struct {
	Workers      int `json:"workers"`
	Tasks        int `json:"tasks"`
	Matches      int `json:"matches"`
	GhostWorkers int `json:"ghost_workers"`
	GhostTasks   int `json:"ghost_tasks"`
	Wire         struct {
		Requests uint64 `json:"requests"`
	} `json:"wire"`
	Events struct {
		Published   uint64 `json:"published"`
		EvictedSubs uint64 `json:"evicted_subs"`
	} `json:"events"`
	Topology struct {
		Version    uint64 `json:"version"`
		Rebalances uint64 `json:"rebalances"`
	} `json:"topology"`
}

// bootServe starts the server cfg describes the way cmd/ftoa-serve does —
// wire listener and tick loop — and returns its wire address and a reader
// of /stats through the server's own handler. Cleanup shuts it down.
func bootServe(t *testing.T, cfg serve.Config) (addr string, stats func() serveStats) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.StartWire(ln)
	srv.StartTick()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx, nil); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	h := srv.Handler()
	return ln.Addr().String(), func() serveStats {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st serveStats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("/stats: status %d, %v", rec.Code, err)
		}
		return st
	}
}

// load runs ftoa-loadgen's command line args against addr.
func load(t *testing.T, addr string, args ...string) *report {
	t.Helper()
	cfg, _, err := parseArgs(append([]string{"-addr", addr}, args...))
	if err != nil {
		t.Fatal(err)
	}
	rep := run(cfg)
	t.Logf("%s: %d requests (%d admitted, %d busy) at %.0f rps, p99 %.1f ms",
		strings.Join(args, " "), rep.Requests, rep.Admitted, rep.Busy, rep.RPS, rep.P99Ms)
	return rep
}

// requireClean is the gate every run shares: no connection died on a
// protocol error, no entry came back ERR, and every attempt is accounted
// as admitted or BUSY.
func requireClean(t *testing.T, rep *report) {
	t.Helper()
	if rep.ProtoErrors != 0 || rep.Errors != 0 {
		t.Errorf("proto_errors = %d, errors = %d, want 0", rep.ProtoErrors, rep.Errors)
	}
	if rep.Requests != rep.Admitted+rep.Busy {
		t.Errorf("requests %d != admitted %d + busy %d", rep.Requests, rep.Admitted, rep.Busy)
	}
}

// rpsFloor is a deliberately lenient throughput floor: it catches "the
// wire path collapsed", not machine jitter — the batched path sustains
// orders of magnitude more.
const rpsFloor = 2000

// gridServer is ftoa-serve -shards 4x4 -halo 5, the server every load
// scenario runs against.
func gridServer() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards, cfg.Halo = [2]int{4, 4}, 5
	return cfg
}

// TestServeHotspotLoad: 8 connections of unthrottled hotspot load
// against a 4x4 halo server finish with a clean protocol, clear the rps
// floor, and the server counted exactly what the client sent.
func TestServeHotspotLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wire load")
	}
	addr, stats := bootServe(t, gridServer())
	rep := load(t, addr, "-conns", "8", "-batch", "128", "-pattern", "hotspot",
		"-duration", soakLength("30s", "1s"), "-seed", "1")
	requireClean(t, rep)
	if rep.RPS < rpsFloor {
		t.Errorf("rps = %.0f, under the %d floor", rep.RPS, rpsFloor)
	}
	if got := stats().Wire.Requests; got != rep.Requests {
		t.Errorf("/stats wire.requests = %d, the generator sent %d", got, rep.Requests)
	}
}

// TestServeRebalanceUniformParity: 2000/s of uniform load over 16
// regions is 125/s per region, below the 200/s split threshold, so an
// adaptive server must never touch its topology and must match what a
// static one matches, within 5 % (arrivals are server-stamped, so two
// timed runs are close but not bit-equal).
func TestServeRebalanceUniformParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wire load")
	}
	matches := map[bool]int{}
	for _, adaptive := range []bool{false, true} {
		t.Run(topologyName(adaptive), func(t *testing.T) {
			cfg := gridServer()
			cfg.Rebalance = adaptive
			addr, stats := bootServe(t, cfg)
			rep := load(t, addr, "-conns", "4", "-batch", "64", "-pattern", "uniform", "-rate", "2000",
				"-duration", soakLength("15s", "1500ms"), "-seed", "7")
			requireClean(t, rep)
			st := stats()
			matches[adaptive] = st.Matches
			if st.Topology.Version != 1 || st.Topology.Rebalances != 0 {
				t.Errorf("topology = v%d after %d rebalances, want v1 untouched", st.Topology.Version, st.Topology.Rebalances)
			}
		})
	}
	s, a := matches[false], matches[true]
	t.Logf("matches: static %d, adaptive %d", s, a)
	if s == 0 || a == 0 {
		t.Fatalf("a run matched nothing: static %d, adaptive %d", s, a)
	}
	if r := float64(a) / float64(s); r < 0.95 || r > 1.0526 {
		t.Errorf("adaptive/static matches = %.3f, diverged beyond 5%%", r)
	}
}

// TestServeRebalanceMovingHotspot: under a hotspot that relocates every
// drift interval the adaptive server must actually rebalance, keep exact
// accounting across the sessions it replaces (what /stats owns, ghost
// copies aside, is what the generator was acknowledged), and keep serving:
// an absolute rps floor always, and at least 0.9x the static run's rps
// under FTOA_SOAK=1 (the ratio of two short runs is runner jitter).
func TestServeRebalanceMovingHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("wire load")
	}
	rps := map[bool]float64{}
	for _, adaptive := range []bool{false, true} {
		t.Run(topologyName(adaptive), func(t *testing.T) {
			cfg := gridServer()
			if adaptive {
				cfg.Rebalance = true
				cfg.RebalSplit, cfg.RebalMerge = 500, 100
			}
			addr, stats := bootServe(t, cfg)
			rep := load(t, addr, "-conns", "8", "-batch", "128", "-pattern", "hotspot",
				"-hotspot-drift", soakLength("5s", "500ms"), "-duration", soakLength("30s", "1s"), "-seed", "1")
			requireClean(t, rep)
			rps[adaptive] = rep.RPS
			st := stats()
			if owned := st.Workers + st.Tasks - st.GhostWorkers - st.GhostTasks; uint64(owned) != rep.Admitted {
				t.Errorf("/stats owns %d admissions, the generator was acknowledged %d", owned, rep.Admitted)
			}
			if adaptive && st.Topology.Rebalances < 1 {
				t.Errorf("the drifting hotspot drove no topology change")
			}
		})
	}
	s, a := rps[false], rps[true]
	t.Logf("rps: static %.0f, adaptive %.0f (%.3f)", s, a, a/s)
	if a < rpsFloor {
		t.Errorf("adaptive rps = %.0f, under the %d floor", a, rpsFloor)
	}
	if soaking() && a < 0.9*s {
		t.Errorf("adaptive rps %.0f under 0.9x static %.0f", a, s)
	}
}

// topologyName names a run of a static-vs-adaptive pair. Each run is a
// subtest so its server is shut down before the next one boots.
func topologyName(adaptive bool) string {
	if adaptive {
		return "adaptive"
	}
	return "static"
}

// TestServeFanout16Subscribers: 16 subscriptions read the one event log
// beside throttled hotspot load. Every stream is gap-free with no
// retention overrun, and p99 delivery lag stays under a generous 2.5 s —
// push delivery lands in milliseconds, so seconds would mean the pusher
// regressed to polling or subscribers are starving. The server fed the
// log and evicted no one.
func TestServeFanout16Subscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("wire load")
	}
	addr, stats := bootServe(t, gridServer())
	rep := load(t, addr, "-conns", "4", "-batch", "64", "-pattern", "hotspot", "-rate", "3000",
		"-duration", soakLength("20s", "1500ms"), "-seed", "1", "-subscribers", "16")
	requireClean(t, rep)
	sr := rep.Subscribers
	if sr == nil || sr.Count != 16 || sr.Events == 0 {
		t.Fatalf("subscribers = %+v, want 16 that received events", sr)
	}
	if sr.Gaps != 0 || sr.EventsGone != 0 {
		t.Errorf("gaps = %d, events_gone = %d, want gap-free streams", sr.Gaps, sr.EventsGone)
	}
	if sr.LagP99Ms > 2500 {
		t.Errorf("lag p99 = %.0f ms, over 2500", sr.LagP99Ms)
	}
	if st := stats(); st.Events.Published == 0 || st.Events.EvictedSubs != 0 {
		t.Errorf("/stats events: published %d, evicted_subs %d; want > 0 and 0", st.Events.Published, st.Events.EvictedSubs)
	}
}
