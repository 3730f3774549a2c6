// Command ftoa-loadgen drives an ftoa-serve wire listener (-listen-wire)
// with batched admissions over TCP and reports an honest end-to-end
// number: how many admissions per second the server actually
// acknowledged, and how long acknowledgment took (p50/p90/p99 batch
// round-trip), measured from the client side of a real socket.
//
// Arrivals are synthesized (-pattern uniform or hotspot, deterministic
// under -seed) or replayed from an ftoa-gen instance CSV (-trace): the
// trace supplies locations and windows, the server stamps arrival times
// with its own clock — replaying yesterday's timestamps into a live
// clock would violate admission monotonicity.
//
// The report is machine-readable JSON on stdout (or -out). "rps" counts
// every acknowledged request — including BUSY rejections, which are the
// server's backpressure working as designed — while "admitted_rps"
// counts only successful admissions. Latency percentiles are over batch
// round-trips: with batching, that IS the admission latency every
// request in the batch experienced.
//
// Per-entry BUSY refusals are retried up to -busy-retries times after
// sleeping the server's Retry-After hint; "retried" counts the
// re-submissions and "gave_up" the entries still BUSY when retries ran
// out. Every attempt counts toward "requests", so requests ==
// admitted + busy + errors always holds.
//
// The end-to-end gates on this path are Go tests: the TestServe* tests
// in main_test.go drive run against the server booted in process
// (hotspot throughput, the static-vs-adaptive rebalance pairs, the
// 16-subscriber fan-out), and the exactly-once chaos soak is
// TestChaosSoakExactlyOnce in internal/serve (docs/chaos.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

type genConfig struct {
	addr        string
	conns       int
	rate        float64 // total admissions/sec across conns; 0 = unthrottled
	duration    time.Duration
	batch       int
	pattern     string        // uniform or hotspot
	drift       time.Duration // hotspot relocation interval; 0 = fixed center
	start       time.Time     // run start, the drift phase clock's zero
	bounds      [4]float64
	seed        int64
	workersFrac float64
	patience    float64
	expiry      float64
	trace       []ftoa.Event // replay instead of synthesis when non-empty
	traceIn     *ftoa.Instance

	// busyRetries bounds per-entry BUSY re-submissions (0 disables); each
	// retry sleeps the server's Retry-After hint first.
	busyRetries int
	// subscribers opens N event-stream subscriptions alongside the
	// admission load and reports delivery lag and throughput.
	subscribers int
}

// subscriberReport aggregates the -subscribers fan-out: every
// subscriber receives the full merged stream, so "events" is deliveries
// summed across subscriptions (count × stream length when gap-free) and
// "events_per_sec" the aggregate delivery rate. "gaps" counts seq
// discontinuities not explained by an EventsGone restart — the stream
// is dense, so any gap is lost delivery. Lag percentiles are per-event
// end-to-end: server emission clock to client receipt, against a server
// clock estimated once over an Advance round-trip.
type subscriberReport struct {
	Count        int     `json:"count"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Gaps         uint64  `json:"gaps"`
	EventsGone   uint64  `json:"events_gone"`
	LagP50Ms     float64 `json:"lag_p50_ms"`
	LagP99Ms     float64 `json:"lag_p99_ms"`
}

type report struct {
	Addr        string  `json:"addr"`
	Pattern     string  `json:"pattern"`
	DriftS      float64 `json:"hotspot_drift_s,omitempty"`
	Conns       int     `json:"conns"`
	Batch       int     `json:"batch"`
	TargetRate  float64 `json:"target_rate"`
	DurationS   float64 `json:"duration_s"`
	Requests    uint64  `json:"requests"`
	Admitted    uint64  `json:"admitted"`
	Busy        uint64  `json:"busy"`
	Errors      uint64  `json:"errors"`
	Retried     uint64  `json:"retried"`
	GaveUp      uint64  `json:"gave_up"`
	ProtoErrors uint64  `json:"proto_errors"`
	Reconnects  uint64  `json:"reconnects"` // subscriber reconnections
	RPS         float64 `json:"rps"`
	AdmittedRPS float64 `json:"admitted_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`

	Subscribers *subscriberReport `json:"subscribers,omitempty"`
}

// connTally is one connection's contribution, merged after the run.
type connTally struct {
	requests uint64
	admitted uint64
	busy     uint64
	errors   uint64
	retried  uint64
	gaveUp   uint64
	protoErr uint64
	rttMs    []float64 // one sample per batch round-trip
}

// absorb tallies one reply's results and returns the indices that came
// back BUSY plus the largest Retry-After hint among them (capped at 2s).
func (t *connTally) absorb(res []wire.Result) (busy []int, wait time.Duration) {
	t.requests += uint64(len(res))
	for i := range res {
		switch res[i].Status {
		case wire.StatusOK:
			t.admitted++
		case wire.StatusBusy:
			t.busy++
			busy = append(busy, i)
			if d := time.Duration(res[i].RetryAfter * float64(time.Second)); d > wait {
				wait = d
			}
		default:
			t.errors++
		}
	}
	if wait > 2*time.Second {
		wait = 2 * time.Second
	}
	return busy, wait
}

// hotspotCenter returns the hotspot's center for one drift phase: a
// deterministic function of (seed, phase) alone, so every connection —
// and every rerun with the same -seed — sees the same relocation
// schedule, placed so the ±5% square stays inside the bounds. Phase -1
// (drift disabled) is the historical fixed central hotspot.
func hotspotCenter(cfg *genConfig, phase int) (cx, cy float64) {
	x0, y0 := cfg.bounds[0], cfg.bounds[1]
	w, h := cfg.bounds[2]-x0, cfg.bounds[3]-y0
	if phase < 0 {
		return x0 + w/2, y0 + h/2
	}
	// A dedicated generator per phase keeps the schedule independent of
	// the per-connection request streams.
	rng := rand.New(rand.NewSource(cfg.seed*1000003 + int64(phase)))
	return x0 + w*(0.05+0.9*rng.Float64()), y0 + h*(0.05+0.9*rng.Float64())
}

// synthesize fills reqs with n fresh arrivals from the configured
// pattern. Hotspot sends 80% of arrivals into a square covering 10% of
// each dimension — the skew that makes one shard's lane the bottleneck
// while its neighbors idle. With -hotspot-drift the square relocates to
// a new deterministic spot every drift interval, the moving rush an
// adaptive topology has to chase.
func synthesize(cfg *genConfig, rng *rand.Rand, reqs []wire.Request, n int) []wire.Request {
	x0, y0, x1, y1 := cfg.bounds[0], cfg.bounds[1], cfg.bounds[2], cfg.bounds[3]
	w, h := x1-x0, y1-y0
	phase := -1
	if cfg.drift > 0 {
		phase = int(time.Since(cfg.start) / cfg.drift)
	}
	cx, cy := hotspotCenter(cfg, phase)
	for i := 0; i < n; i++ {
		var x, y float64
		if cfg.pattern == "hotspot" && rng.Float64() < 0.8 {
			x = cx + (rng.Float64()-0.5)*w*0.1
			y = cy + (rng.Float64()-0.5)*h*0.1
		} else {
			x = x0 + rng.Float64()*w
			y = y0 + rng.Float64()*h
		}
		rq := wire.Request{X: x, Y: y, At: math.NaN()}
		if rng.Float64() < cfg.workersFrac {
			rq.Kind = wire.ReqAddWorker
			rq.Window = cfg.patience
		} else {
			rq.Kind = wire.ReqAddTask
			rq.Window = cfg.expiry
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// traceBatch converts trace events [lo, hi) into admission requests;
// locations and windows come from the instance, arrival stamping is the
// server's (see the package comment).
func traceBatch(in *ftoa.Instance, evs []ftoa.Event, reqs []wire.Request) []wire.Request {
	for _, ev := range evs {
		rq := wire.Request{At: math.NaN()}
		if ev.Kind == ftoa.WorkerArrival {
			w := &in.Workers[ev.Index]
			rq.Kind = wire.ReqAddWorker
			rq.X, rq.Y, rq.Window = w.Loc.X, w.Loc.Y, w.Patience
		} else {
			t := &in.Tasks[ev.Index]
			rq.Kind = wire.ReqAddTask
			rq.X, rq.Y, rq.Window = t.Loc.X, t.Loc.Y, t.Expiry
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// send delivers one batch and tallies the acknowledged results,
// honoring per-entry BUSY Retry-After hints with up to cfg.busyRetries
// re-submissions. A retried entry keeps its idempotency seq — BUSY is
// never recorded in the server's dedup window, so the re-submission is
// a fresh attempt. Returns false when the connection died (the tally is
// final).
func send(cfg *genConfig, cl *wire.Client, reqs []wire.Request, tally *connTally) bool {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		res, err := cl.Do(reqs)
		if err != nil {
			tally.protoErr++
			return false
		}
		tally.rttMs = append(tally.rttMs, float64(time.Since(t0))/float64(time.Millisecond))
		busy, wait := tally.absorb(res)
		if len(busy) == 0 || attempt >= cfg.busyRetries {
			tally.gaveUp += uint64(len(busy))
			return true
		}
		if wait > 0 {
			time.Sleep(wait)
		}
		retry := make([]wire.Request, len(busy))
		for i, j := range busy {
			retry[i] = reqs[j]
		}
		tally.retried += uint64(len(retry))
		reqs = retry
	}
}

// runConn is one connection's send loop: build a batch, send, tally the
// acknowledged results, pace to the per-connection rate. Trace mode
// walks this connection's stride of the event list to exhaustion;
// synthesis runs until the deadline.
func runConn(cfg *genConfig, id int, deadline time.Time, tally *connTally) {
	cl, err := wire.Dial(cfg.addr)
	if err != nil {
		tally.protoErr++
		return
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	var interval time.Duration
	if cfg.rate > 0 {
		perConn := cfg.rate / float64(cfg.conns)
		interval = time.Duration(float64(cfg.batch) / perConn * float64(time.Second))
	}
	next := time.Now()

	// This connection's stride of the trace (empty in synthesis mode).
	var mine []ftoa.Event
	for i := id; i < len(cfg.trace); i += cfg.conns {
		mine = append(mine, cfg.trace[i])
	}
	traceAt := 0

	reqs := make([]wire.Request, 0, cfg.batch)
	for {
		reqs = reqs[:0]
		if cfg.trace != nil {
			if traceAt >= len(mine) {
				return
			}
			hi := traceAt + cfg.batch
			if hi > len(mine) {
				hi = len(mine)
			}
			reqs = traceBatch(cfg.traceIn, mine[traceAt:hi], reqs)
			traceAt = hi
		} else {
			if !time.Now().Before(deadline) {
				return
			}
			reqs = synthesize(cfg, rng, reqs, cfg.batch)
		}

		if !send(cfg, cl, reqs, tally) {
			return
		}

		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}
}

// subscriber is one event-stream consumer riding alongside the
// admission load: it subscribes from the live head through a resilient
// client (reconnects resume from the cursor, so continuity is
// preserved through faults) and scores every pushed event for seq
// continuity and end-to-end delivery lag — server emission time to
// client receipt, against a server clock estimated once over an
// Advance round-trip (the estimate's error is bounded by half that
// RTT, far below the delivery lags worth gating on).
type subscriber struct {
	r        *wire.Retrier
	mu       sync.Mutex
	events   uint64
	gaps     uint64
	gone     uint64
	lagMs    []float64
	expect   uint64
	synced   bool
	clockOK  bool
	serverAt float64   // server clock at ref
	ref      time.Time // local receipt of the clock sample
}

func newSubscriber(cfg *genConfig) *subscriber {
	s := &subscriber{}
	s.r = wire.NewRetrier(wire.RetryConfig{
		Addr:           cfg.addr,
		Subscribe:      true,
		SubscribeSince: wire.SinceNow,
		OnEvents:       s.onEvents,
		OnGone: func(uint64) {
			s.mu.Lock()
			s.gone++
			// A retention overrun restarts the cursor; the jump it causes
			// is accounted under events_gone, not as a delivery gap.
			s.synced = false
			s.mu.Unlock()
		},
	})
	return s
}

// syncClock samples the server clock once; must run before the load so
// lag measurements cover the whole run.
func (s *subscriber) syncClock() error {
	if _, err := s.r.WaitConnect(10 * time.Second); err != nil {
		return err
	}
	t0 := time.Now()
	res, err := s.r.Do([]wire.Request{{Kind: wire.ReqAdvance}})
	if err != nil {
		return err
	}
	rtt := time.Since(t0)
	if len(res) == 1 && res[0].Status == wire.StatusOK {
		s.mu.Lock()
		s.serverAt = res[0].Time + rtt.Seconds()/2
		s.ref = t0.Add(rtt / 2)
		s.clockOK = true
		s.mu.Unlock()
	}
	return nil
}

// onEvents runs on the client's reader goroutine for every pushed
// frame: the receipt timestamp is taken once per frame (the whole frame
// arrived together).
func (s *subscriber) onEvents(_ uint64, evs []wire.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		if s.synced && ev.Seq != s.expect {
			s.gaps++
		}
		s.expect = ev.Seq + 1
		s.synced = true
		s.events++
		if s.clockOK {
			lag := (s.serverAt + now.Sub(s.ref).Seconds()) - ev.Time
			if lag < 0 {
				lag = 0
			}
			s.lagMs = append(s.lagMs, lag*1000)
		}
	}
}

// run executes the load and assembles the report.
func run(cfg *genConfig) *report {
	subs := make([]*subscriber, cfg.subscribers)
	for i := range subs {
		subs[i] = newSubscriber(cfg)
		if err := subs[i].syncClock(); err != nil {
			log.Fatalf("ftoa-loadgen: subscriber %d: %v", i, err)
		}
	}
	tallies := make([]connTally, cfg.conns)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	cfg.start = start
	var wg sync.WaitGroup
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runConn(cfg, i, deadline, &tallies[i])
		}(i)
	}
	wg.Wait()
	if len(subs) > 0 {
		// Settle window: pushes for the last admissions are in flight;
		// delivery is notification-driven, so a short drain suffices.
		time.Sleep(500 * time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()

	rep := &report{
		Addr:       cfg.addr,
		Pattern:    cfg.pattern,
		DriftS:     cfg.drift.Seconds(),
		Conns:      cfg.conns,
		Batch:      cfg.batch,
		TargetRate: cfg.rate,
		DurationS:  elapsed,
	}
	var rtts []float64
	for i := range tallies {
		t := &tallies[i]
		rep.Requests += t.requests
		rep.Admitted += t.admitted
		rep.Busy += t.busy
		rep.Errors += t.errors
		rep.Retried += t.retried
		rep.GaveUp += t.gaveUp
		rep.ProtoErrors += t.protoErr
		rtts = append(rtts, t.rttMs...)
	}
	if elapsed > 0 {
		rep.RPS = float64(rep.Requests) / elapsed
		rep.AdmittedRPS = float64(rep.Admitted) / elapsed
	}
	sort.Float64s(rtts)
	rep.P50Ms = percentile(rtts, 0.50)
	rep.P90Ms = percentile(rtts, 0.90)
	rep.P99Ms = percentile(rtts, 0.99)
	if len(subs) > 0 {
		sr := &subscriberReport{Count: len(subs)}
		var lags []float64
		for _, sb := range subs {
			sb.r.Close()
			sb.mu.Lock()
			sr.Events += sb.events
			sr.Gaps += sb.gaps
			sr.EventsGone += sb.gone
			lags = append(lags, sb.lagMs...)
			sb.mu.Unlock()
			rep.Reconnects += sb.r.Reconnects()
		}
		if elapsed > 0 {
			sr.EventsPerSec = float64(sr.Events) / elapsed
		}
		sort.Float64s(lags)
		sr.LagP50Ms = percentile(lags, 0.50)
		sr.LagP99Ms = percentile(lags, 0.99)
		rep.Subscribers = sr
	}
	return rep
}

// percentile over a sorted sample (nearest-rank); zero when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// parseArgs reads an ftoa-loadgen command line (program name excluded)
// into the run's configuration and the report's destination (-out; ""
// is stdout). An unknown flag exits like any flag parse; a bad value is
// an error.
func parseArgs(args []string) (cfg *genConfig, out string, err error) {
	fs := flag.NewFlagSet("ftoa-loadgen", flag.ExitOnError)
	cfg = &genConfig{}
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:9090", "ftoa-serve wire address (-listen-wire)")
	fs.IntVar(&cfg.conns, "conns", 4, "concurrent wire connections")
	fs.Float64Var(&cfg.rate, "rate", 0, "target total admissions per second across all connections (0 = unthrottled)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "synthesis run length (-trace runs to exhaustion instead)")
	fs.IntVar(&cfg.batch, "batch", 64, "admissions per wire batch")
	fs.StringVar(&cfg.pattern, "pattern", "uniform", "synthetic arrival pattern: uniform or hotspot (80% of arrivals in a square covering 10% of each dimension)")
	fs.DurationVar(&cfg.drift, "hotspot-drift", 0, "relocate the hotspot to a new spot every interval (0 = fixed central hotspot); the schedule is a deterministic function of -seed alone")
	bounds := fs.String("bounds", "0,0,100,100", "service area as x0,y0,x1,y1 (must match the server's)")
	fs.Int64Var(&cfg.seed, "seed", 1, "synthesis seed; runs are deterministic per (seed, conns, batch)")
	fs.Float64Var(&cfg.workersFrac, "workers-frac", 0.5, "fraction of synthetic arrivals that are workers")
	fs.Float64Var(&cfg.patience, "patience", 300, "synthetic worker patience (seconds)")
	fs.Float64Var(&cfg.expiry, "expiry", 60, "synthetic task expiry (seconds)")
	velocity := fs.Float64("velocity", 1, "worker velocity for -trace parsing")
	tracePath := fs.String("trace", "", "replay this ftoa-gen instance CSV instead of synthesizing")
	fs.StringVar(&out, "out", "", "write the JSON report here (default stdout)")
	fs.IntVar(&cfg.busyRetries, "busy-retries", 3, "re-submit BUSY entries up to this many times, sleeping the server's Retry-After hint first (0 disables)")
	fs.IntVar(&cfg.subscribers, "subscribers", 0, "open N event-stream subscriptions alongside the load and report delivery lag p50/p99, events/sec and gap counts")
	fs.Parse(args)

	switch {
	case cfg.subscribers < 0:
		return nil, "", errors.New("-subscribers must be >= 0")
	case cfg.busyRetries < 0:
		return nil, "", errors.New("-busy-retries must be >= 0")
	case cfg.conns <= 0 || cfg.batch <= 0 || cfg.batch > wire.MaxBatch:
		return nil, "", fmt.Errorf("need conns > 0 and 0 < batch <= %d", wire.MaxBatch)
	case cfg.pattern != "uniform" && cfg.pattern != "hotspot":
		return nil, "", fmt.Errorf("unknown -pattern %q", cfg.pattern)
	case cfg.drift < 0 || (cfg.drift > 0 && cfg.pattern != "hotspot"):
		return nil, "", errors.New("-hotspot-drift needs -pattern hotspot and a non-negative interval")
	}
	parts := strings.Split(*bounds, ",")
	if len(parts) != 4 {
		return nil, "", fmt.Errorf("bad -bounds %q: want x0,y0,x1,y1", *bounds)
	}
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%g", &cfg.bounds[i]); err != nil {
			return nil, "", fmt.Errorf("bad -bounds component %q: %v", p, err)
		}
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return nil, "", err
		}
		in, err := ftoa.LoadInstanceCSV(f, *velocity)
		f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("%s: %v", *tracePath, err)
		}
		cfg.traceIn = in
		cfg.trace = in.Events()
	}
	return cfg, out, nil
}

func main() {
	cfg, out, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatalf("ftoa-loadgen: %v", err)
	}
	rep := run(cfg)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	if rep.ProtoErrors > 0 {
		log.Fatalf("ftoa-loadgen: %d connection(s) died on protocol errors", rep.ProtoErrors)
	}
}
