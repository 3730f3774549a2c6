package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ftoa/internal/wire"
)

// Traced-run shape: blocks of batches alternate between the recording
// and the nil recorder, so machine-speed drift hits both alike and their
// ratio is the tracing overhead.
const (
	tracedBatches  = 3000 // stop after this many traced batches...
	tracedShare    = 0.3  // ...or this share of --seconds per mode, whichever first
	ladderArrivals = 60000
)

// tracedLoop drives the mirror from one goroutine: every step of a
// batch's life — client encode to client decode — runs in program
// order over real loopback sockets, so each span is that step's own
// cost with no queueing mixed in (except admit.wait, which is exactly
// the queueing the ladder then splits).
type tracedLoop struct {
	m        *Mirror
	ccn, scn *wire.Conn
	win      *wire.ClientWindow
	pushers  []*Pusher
	subConns []*wire.Conn // client ends of the subscriber sockets
	scratch  []wire.Request
	pool     []wire.Request
	next     int // pool cursor
	seq, id  uint64
	batchNo  int

	requests, wireBytes  uint64
	events, tracedEvents uint64 // per subscriber
}

func (t *tracedLoop) close() {
	conns := append([]*wire.Conn{t.ccn, t.scn}, t.subConns...)
	for _, p := range t.pushers {
		p.Sub.Close()
		conns = append(conns, p.cn)
	}
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// batch sends one batch of size requests through the whole path.
func (t *tracedLoop) batch(rec *Recorder, size int) error {
	if t.next+size > len(t.pool) {
		t.next = 0
	}
	reqs := append([]wire.Request(nil), t.pool[t.next:t.next+size]...)
	t.next += size
	for i := range reqs {
		t.seq++
		reqs[i].Seq = t.seq
	}
	t.batchNo++
	if t.batchNo%AdvanceEvery == 0 {
		reqs = append(reqs, wire.Request{Kind: wire.ReqAdvance})
	}
	n := t.batchNo
	t.id++

	b := rec.Begin("batch", -1, n)
	sp := rec.Begin("wire.encode_batch", b, n)
	p, err := wire.AppendBatch(nil, t.id, reqs)
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("wire.frame_write", b, n)
	err = t.ccn.WriteFrame(p)
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("wire.frame_read", b, n)
	in, err := t.scn.ReadFrame()
	rec.End(sp)
	if err != nil {
		return err
	}
	if t.scratch, err = t.m.HandleBatch(t.scn, t.win, in, t.scratch[:0], b, n); err != nil {
		return err
	}
	sp = rec.Begin("wire.frame_read", b, n)
	reply, err := t.ccn.ReadFrame()
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Begin("wire.decode_reply", b, n)
	_, results, err := wire.DecodeBatchReply(reply)
	rec.End(sp)
	rec.End(b)
	if err != nil {
		return err
	}
	for i := range results {
		if results[i].Status != wire.StatusOK {
			return fmt.Errorf("mirror refused request %d of batch %d: status %d %s", i, n, results[i].Status, results[i].Msg)
		}
	}
	t.requests += uint64(size)
	t.wireBytes += uint64(len(p) + len(reply) + 16)

	// Fan-out: every subscriber drains what the batch emitted.
	for i, pu := range t.pushers {
		for {
			root := rec.Begin("push", -1, n)
			sent, err := t.m.Push(pu, root, n)
			if err != nil || sent == 0 {
				rec.End(root)
				if err != nil {
					return err
				}
				break
			}
			sp = rec.Begin("events.frame_read", root, n)
			frame, err := t.subConns[i].ReadFrame()
			rec.End(sp)
			if err != nil {
				return err
			}
			sp = rec.Begin("events.decode", root, n)
			_, evs, err := wire.DecodeEvents(frame)
			rec.End(sp)
			rec.End(root)
			if err != nil {
				return err
			}
			if i == 0 {
				t.events += uint64(len(evs))
				if rec != nil {
					t.tracedEvents += uint64(len(evs))
				}
			}
		}
	}
	return nil
}

// us is nanoseconds-as-int64 over n, in microseconds (0 when n is 0).
func us(ns int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

// runTraced produces the per-layer metrics of one workload: a short
// companion run against the real binary (server counters, generator
// lateness), the traced and untraced in-process runs, and the ladder.
func runTraced(cfg Config, w Workload, seed int64, work string) (*Outcome, error) {
	comp, err := RunE2E(E2EOptions{
		Workload: w, Seed: seed, PacedSecs: cfg.Seconds / 4, SatSecs: cfg.Seconds / 4, OneBoot: true,
		ServeBin: cfg.ServeBin, WorkDir: work, Log: cfg.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("companion run: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Same inputs as the end-to-end run of this seed.
	rng := rand.New(rand.NewSource(seed))
	pool := w.Arrivals(rng, 1<<18)
	opt := MirrorOptions{Workload: w, Retire: RetireSecs, Tick: true}
	if w.Guide {
		opt.Guide = strings.NewReader(w.CountsCSV(rng))
	}
	if w.WAL {
		opt.WALDir = filepath.Join(work, "wal-mirror")
	}
	m, err := NewMirror(opt, nil)
	if err != nil {
		return nil, err
	}
	loop := &tracedLoop{m: m, pool: pool}
	defer loop.close()
	if loop.ccn, loop.scn, err = socketPair(uint64(seed)<<16|1, m.Router.NumShards()); err != nil {
		return nil, err
	}
	if loop.win, err = m.Dedup.Acquire(uint64(seed)<<16 | 1); err != nil {
		return nil, err
	}
	for i := 0; i < w.Subscribers; i++ {
		c, s, err := socketPair(uint64(seed)<<16|uint64(2+i), m.Router.NumShards())
		if err != nil {
			return nil, err
		}
		loop.subConns = append(loop.subConns, c)
		loop.pushers = append(loop.pushers, m.NewPusher(s))
	}

	// Warm-up: the client's dedup window full twice over.
	for sent := 0; sent < 2*DedupWindow; sent += Batch {
		if err := loop.batch(nil, Batch); err != nil {
			return nil, err
		}
	}

	// Alternate traced and untraced blocks.
	block := max(20, 2000/Batch)
	rec := NewRecorder(tracedBatches * (16 + 6*w.Subscribers))
	budget := time.Duration(tracedShare * cfg.Seconds * float64(time.Second))
	var took [2]time.Duration // [traced, untraced]
	var reqs [2]uint64
	var batches [2]int
	var mallocs uint64
	var ms runtime.MemStats
	loop.requests, loop.events, loop.tracedEvents, loop.wireBytes = 0, 0, 0, 0
	for batches[0] < tracedBatches && took[0] < budget {
		for mode, r := range []*Recorder{rec, nil} {
			m.SetRecorder(r)
			if r == nil {
				runtime.ReadMemStats(&ms)
				mallocs -= ms.Mallocs
			}
			before := loop.requests
			t0 := time.Now()
			for i := 0; i < block; i++ {
				if err := loop.batch(r, Batch); err != nil {
					return nil, err
				}
			}
			took[mode] += time.Since(t0)
			reqs[mode] += loop.requests - before
			batches[mode] += block
			if r == nil {
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs
			}
		}
	}
	m.SetRecorder(nil)
	if err := rec.WriteFile(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}

	ladderWAL := ""
	if w.WAL {
		ladderWAL = filepath.Join(work, "wal-ladder")
	}
	ladder, err := RunLadder(w, pool[:ladderArrivals], m.Guide, ladderWAL)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	in := layerInputs{
		ladder: ladder, comp: comp,
		tracedReqs: reqs[0], tracedBatches: uint64(batches[0]), untracedBatches: uint64(batches[1]),
		tracedDeliveries: loop.tracedEvents * uint64(max(1, w.Subscribers)),
		requests:         loop.requests, events: loop.events, wireBytes: loop.wireBytes, mallocs: mallocs,
		busy: m.Busy, hits: m.Deduped, lookups: m.Lookups,
		guideBuild: m.GuideBuild, guideNodes: m.GuideNodes,
		tracedUsPerReq: us(int64(took[0]), reqs[0]), untracedUsPerReq: us(int64(took[1]), reqs[1]),
	}
	if err := m.Close(); err != nil {
		return nil, err
	}
	in.agg = Aggregate(rec.Spans())
	agg, tReq := in.agg, reqs[0]

	o := &Outcome{Workload: w.Name, Seed: seed, Traced: true, Attempted: comp.Attempted + loop.requests, Failed: comp.Failed, Violations: comp.Violations}
	o.Metrics = layerMetrics(in)
	residue := float64(agg["batch"].Self) / float64(max(1, agg["batch"].Total))
	o.Notes = append(o.Notes, fmt.Sprintf("traced %d batches (%d requests), untraced %d; spans in %s",
		batches[0], reqs[0], batches[1], filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")))
	o.Notes = append(o.Notes, "self time per request by span:")
	for _, name := range spanOrder {
		if t, ok := agg[name]; ok {
			o.Notes = append(o.Notes, fmt.Sprintf("  %-20s self %9.3f us/req  (%d spans)", name, us(t.Self, tReq), t.Count))
		}
	}
	if residue > 0.15 {
		o.Violations = append(o.Violations, fmt.Sprintf("trace names only %.0f%% of the batch span", 100*(1-residue)))
	}
	if comp.LateP95Ms > 1 {
		o.Notes = append(o.Notes, fmt.Sprintf("INVALID RUN: generator lateness p95 %.3f ms > 1 ms", comp.LateP95Ms))
	}
	o.Correct = len(o.Violations) == 0 && o.Failed == 0
	return o, nil
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	agg    map[string]SpanTotals // traced spans by name
	ladder *Ladder
	comp   *E2EResult // companion run against the real binary

	tracedReqs, tracedBatches, untracedBatches uint64
	tracedDeliveries                           uint64 // events delivered in traced blocks, all subscribers
	requests, events, wireBytes, mallocs       uint64 // both modes; events per subscriber; mallocs untraced only
	busy, hits, lookups                        uint64 // mirror counters
	guideBuild                                 time.Duration
	guideNodes                                 int
	tracedUsPerReq, untracedUsPerReq           float64
}

// layerMetrics names every per-layer metric; BENCHMARK.json lists the
// same names (TestBenchmarkJSONMatchesCode).
func layerMetrics(in layerInputs) []Metric {
	agg, ladder, st := in.agg, in.ladder, in.comp.Stats
	tot := func(name string) int64 { return agg[name].Total }
	per := func(name string) float64 { return us(agg[name].Total, uint64(agg[name].Count)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	owned := float64(st.Owned())
	speed := speedMetrics(in.comp)
	return []Metric{
		{"wire.encode_batch_us", per("wire.encode_batch"), "us"},
		{"wire.decode_batch_us", per("wire.decode_batch"), "us"},
		{"wire.encode_reply_us", per("wire.encode_reply"), "us"},
		{"wire.decode_reply_us", per("wire.decode_reply"), "us"},
		{"wire.frame_write_us", per("wire.frame_write"), "us"},
		{"wire.frame_read_us", per("wire.frame_read"), "us"},
		{"wire.bytes_per_req", ratio(float64(in.wireBytes), float64(in.requests)), "B"},
		{"wire.allocs_per_batch", ratio(float64(in.mallocs), float64(in.untracedBatches)), "count"},
		{"dedup.lookup_us_per_req", us(tot("dedup.lookup"), in.tracedReqs), "us"},
		{"dedup.record_us_per_req", us(tot("dedup.record"), in.tracedReqs), "us"},
		{"dedup.window_len", float64(min(in.lookups, DedupWindow)), "count"},
		{"dedup.hits", float64(in.hits), "count"},
		{"admit.enqueue_us_per_req", us(tot("admit.enqueue"), in.tracedReqs), "us"},
		{"admit.wait_us_per_batch", us(tot("admit.wait"), in.tracedBatches), "us"},
		{"admit.busy", float64(in.busy), "count"},
		{"router.add_us_per_req", ladder.RouterAddUs, "us"},
		{"router.advance_us", per("router.advance"), "us"},
		{"router.retire_ms", ladder.RetireMs, "ms"},
		{"router.ghosts_per_req", ratio(float64(st.GhostWorkers+st.GhostTasks), owned), "ratio"},
		{"router.claims_lost_per_req", ratio(float64(st.ClaimsLost), owned), "ratio"},
		{"router.border_match_share", ratio(float64(st.BorderMatches), float64(st.Matches)), "ratio"},
		{"sim.add_us_per_req", ladder.SimAddUs, "us"},
		{"sim.live_objects", float64(st.LiveWorkers + st.LiveTasks), "count"},
		{"wal.add_delta_us_per_req", ladder.WALAddDeltaUs, "us"},
		{"wal.flush_ms", ladder.WALFlushMs, "ms"},
		{"wal.bytes_per_req", ladder.WALBytesPerReq, "B"},
		{"wal.recover_us_per_event", ladder.RecoverUsPerEv, "us"},
		{"events.next_us_per_event", us(tot("events.next"), in.tracedDeliveries), "us"},
		{"events.encode_us_per_event", us(tot("events.encode"), in.tracedDeliveries), "us"},
		{"events.decode_us_per_event", us(tot("events.decode"), in.tracedDeliveries), "us"},
		{"events.per_req", ratio(float64(in.events), float64(in.requests)), "ratio"},
		{"events.lag_p50_ms", in.comp.LagP50Ms, "ms"},
		{"events.lag_p95_ms", in.comp.LagP95Ms, "ms"},
		{"events.fallbacks", float64(st.Events.Fallbacks), "count"},
		{"events.wakeups", float64(st.Events.Wakeups), "count"},
		{"guide.build_s", in.guideBuild.Seconds(), "s"},
		{"guide.nodes", float64(in.guideNodes), "count"},
		{"serve.boot_s", in.comp.BootS, "s"},
		speed[3], // serve.cpu_us_per_req
		{"serve.busy", float64(st.Wire.Busy), "count"},
		{"serve.deduped", float64(st.Wire.Deduped), "count"},
		{"serve.proto_errors", float64(st.Wire.ProtoErrors), "count"},
		speed[0], speed[1], speed[2], // driver.admit_rps, driver.rtt_p50_ms, driver.rtt_p95_ms
		{"driver.late_p95_ms", in.comp.LateP95Ms, "ms"},
		{"driver.fail_ratio", in.comp.FailRatio(), "ratio"},
		{"trace.overhead_ratio", ratio(in.tracedUsPerReq, in.untracedUsPerReq), "ratio"},
		{"trace.residue_share", ratio(float64(agg["batch"].Self), float64(agg["batch"].Total)), "ratio"},
		{"trace.us_per_req", in.tracedUsPerReq, "us"},
	}
}

// spanOrder lists span names in request-path order for the report.
var spanOrder = []string{
	"batch", "wire.encode_batch", "wire.frame_write", "wire.frame_read", "wire.decode_batch",
	"dedup.lookup", "admit.enqueue", "admit.wait", "dedup.record", "router.advance",
	"wire.encode_reply", "wire.decode_reply",
	"push", "events.next", "events.encode", "events.frame_write", "events.frame_read", "events.decode",
}
