package bench

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

// Mirror is an in-process copy of the request path of cmd/ftoa-serve's
// wire listener (wire.go handleBatch and pushEvents, main.go newServer):
// the same public calls in the same order, with a span around each. It
// exists because those handlers live in package main and cannot be
// imported; TestMirrorMatchesBinary keeps it honest, and it is retired
// when ROADMAP item 3b makes the handlers importable. Withdrawals, which
// no workload sends, are not mirrored.
type Mirror struct {
	Router   *ftoa.ShardRouter
	Admitter *ftoa.ShardAdmitter
	Dedup    *wire.DedupTable
	Recovery *ftoa.ShardRecoveryInfo // non-nil when booted from a WAL
	Guide    *ftoa.Guide             // non-nil for guided workloads

	GuideBuild time.Duration // HP-MSI training + BuildGuide, 0 without a guide
	GuideNodes int           // non-empty (slot, area) cells in the guide

	rec         *Recorder
	started     time.Time
	clockBase   float64       // recovered max clock: session time resumes here
	minAdvance  float64       // half a tick, as the server throttles advances
	lastAdvance atomic.Uint64 // float64 bits
	stopTick    chan struct{}
	tickDone    chan struct{}

	Busy, Deduped, Lookups uint64 // refused enqueues, replayed seqs, seqs looked up
}

// serverTick mirrors ftoa-serve's default -tick.
const serverTick = 250 * time.Millisecond

// wireEventPage mirrors cmd/ftoa-serve's bound on one Events frame.
const wireEventPage = 1024

// MirrorOptions configure a Mirror like the flags configure the server.
type MirrorOptions struct {
	Workload Workload
	Guide    io.Reader // counts CSV for guided workloads
	WALDir   string    // "" = not durable; otherwise boots through recovery
	Retire   float64   // arena retirement interval, seconds (0 disables)
	Dedup    int       // idempotency seqs remembered per client (0 = the default)
	Tick     bool      // run the 250 ms advance loop, as the server does
}

// BuildGuide mirrors guideFromCounts with -guide-anchor uptime: train
// HP-MSI on every day but the last, forecast the last, build the guide.
func BuildGuide(r io.Reader) (*ftoa.Guide, error) {
	days, slots, areas, wCounts, tCounts, weather, err := ftoa.LoadCountsCSV(r)
	if err != nil {
		return nil, err
	}
	side := int(math.Round(math.Sqrt(float64(areas))))
	if side*side != areas || days < 3 {
		return nil, fmt.Errorf("counts history: %d areas over %d days (want a square grid and >= 3 days)", areas, days)
	}
	dow := make([]int, days)
	for i := range dow {
		dow[i] = i % 7
	}
	predict := func(counts []int) ([]int, error) {
		s, err := ftoa.NewSeries(days, slots, areas, counts, weather, dow)
		if err != nil {
			return nil, err
		}
		p := ftoa.NewHPMSI()
		if err := p.Fit(s, days-1); err != nil {
			return nil, err
		}
		return ftoa.ToCounts(ftoa.PredictDay(p, s, days-1)), nil
	}
	wPred, err := predict(wCounts)
	if err != nil {
		return nil, err
	}
	tPred, err := predict(tCounts)
	if err != nil {
		return nil, err
	}
	slotting := ftoa.NewSlotting(GuideHorizon, slots)
	return ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:            ftoa.NewGrid(bounds(), side, side),
		Slots:           slotting,
		Velocity:        Velocity,
		WorkerPatience:  Patience,
		TaskExpiry:      Expiry,
		MaxEdgesPerCell: 128,
		RepSlack:        slotting.Width() / 2,
	}, wPred, tPred)
}

func bounds() ftoa.Rect { return ftoa.NewRect(0, 0, BoundsSide, BoundsSide) }

// algorithmFactory mirrors buildAlgorithm for the two served algorithms.
func algorithmFactory(w Workload, g *ftoa.Guide) func() ftoa.Algorithm {
	if w.Alg == "polarop" {
		return func() ftoa.Algorithm { return ftoa.NewPOLAROP(g) }
	}
	return func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() }
}

// shardConfig mirrors the ShardConfig newServer assembles from the flags
// (minus the /matches MatchLog hook, which the wire path never reads).
func shardConfig(w Workload, mk func() ftoa.Algorithm, retire float64, walDir string) ftoa.ShardConfig {
	cfg := ftoa.ShardConfig{
		Matcher:        ftoa.MatcherConfig{Mode: ftoa.Strict, Velocity: Velocity, Bounds: bounds()},
		Cols:           w.Cols,
		Rows:           w.Rows,
		Halo:           ftoa.HaloForWindow(Velocity, w.HaloSecs),
		NewAlgorithm:   mk,
		Retention:      1 << 16,
		RetireInterval: retire,
	}
	if walDir != "" {
		cfg.WAL = &ftoa.WALOptions{Dir: walDir, Policy: ftoa.WALSyncInterval}
	}
	return cfg
}

// NewMirror boots the in-process server.
func NewMirror(opt MirrorOptions, rec *Recorder) (*Mirror, error) {
	m := &Mirror{rec: rec, minAdvance: serverTick.Seconds() / 2}
	var g *ftoa.Guide
	if opt.Workload.Guide {
		t0 := time.Now()
		var err error
		if g, err = BuildGuide(opt.Guide); err != nil {
			return nil, err
		}
		m.Guide, m.GuideBuild = g, time.Since(t0)
		m.GuideNodes = len(g.WorkerCells) + len(g.TaskCells)
	}
	cfg := shardConfig(opt.Workload, algorithmFactory(opt.Workload, g), opt.Retire, opt.WALDir)
	var err error
	if opt.WALDir == "" {
		m.Router, err = ftoa.NewShardRouter(cfg)
	} else {
		m.Router, m.Recovery, err = ftoa.RecoverShardRouter(cfg)
		if err == nil && m.Recovery.MaxClock > 0 && !math.IsInf(m.Recovery.MaxClock, 0) {
			m.clockBase = m.Recovery.MaxClock
		}
	}
	if err != nil {
		return nil, err
	}
	m.started = time.Now()
	m.lastAdvance.Store(math.Float64bits(math.Inf(-1)))
	m.Admitter = ftoa.NewShardAdmitter(m.Router, ftoa.ShardAdmitterConfig{Ring: 1024, Batch: 256})
	m.Dedup = wire.NewDedupTable(opt.Dedup, 0)
	if opt.Tick {
		m.stopTick, m.tickDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(m.tickDone)
			t := time.NewTicker(serverTick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					m.advance()
				case <-m.stopTick:
					return
				}
			}
		}()
	}
	return m, nil
}

// Close shuts down in the server's order: tick loop, rings, WAL.
func (m *Mirror) Close() error {
	if m.stopTick != nil {
		close(m.stopTick)
		<-m.tickDone
	}
	m.Admitter.Close()
	return m.Router.WALClose()
}

// SetRecorder swaps the span recorder (nil = untraced).
func (m *Mirror) SetRecorder(rec *Recorder) { m.rec = rec }

func (m *Mirror) now() float64 { return m.clockBase + time.Since(m.started).Seconds() }

// advance mirrors server.advance: throttled, CAS-deduplicated.
func (m *Mirror) advance() {
	now := m.now()
	last := m.lastAdvance.Load()
	if now-math.Float64frombits(last) < m.minAdvance {
		return
	}
	if !m.lastAdvance.CompareAndSwap(last, math.Float64bits(now)) {
		return
	}
	m.Router.Advance(now)
}

// HandleBatch mirrors wireServer.handleBatch for one decoded frame p read
// from cn's peer: decode, dedup lookup, enqueue, await, collect + record,
// encode, write. parent/batch tag the spans. Phase comments follow the
// original.
func (m *Mirror) HandleBatch(cn *wire.Conn, win *wire.ClientWindow, p []byte, scratch []wire.Request, parent, batch int) ([]wire.Request, error) {
	rec := m.rec
	sp := rec.Begin("wire.decode_batch", parent, batch)
	id, reqs, err := wire.DecodeBatch(p, scratch)
	rec.End(sp)
	if err != nil {
		return reqs, err
	}
	results := make([]wire.Result, len(reqs))
	admRes := make([]ftoa.ShardAdmitResult, len(reqs))
	pending := make([]bool, len(reqs))
	fresh := make([]bool, len(reqs))
	var wg sync.WaitGroup
	now := m.now()

	win.Lock()
	defer win.Unlock()

	// Phase 0: idempotency.
	sp = rec.Begin("dedup.lookup", parent, batch)
	for i := range reqs {
		rq := &reqs[i]
		results[i].Kind = rq.Kind
		if !wire.Effectful(rq.Kind) {
			fresh[i] = true
			continue
		}
		m.Lookups++
		r, state := win.Lookup(rq.Seq)
		switch state {
		case wire.DedupNew:
			fresh[i] = true
		case wire.DedupHit:
			m.Deduped++
			results[i] = r
		case wire.DedupOverrun:
			results[i].Status = wire.StatusErr
			results[i].Msg = "idempotency window overrun: outcome of this seq is unknown"
		case wire.DedupInvalid:
			results[i].Status = wire.StatusErr
			results[i].Msg = "idempotency seq must be nonzero"
		}
	}
	rec.End(sp)

	// Phase 1: enqueue every fresh admission.
	sp = rec.Begin("admit.enqueue", parent, batch)
	for i := range reqs {
		rq := &reqs[i]
		if !fresh[i] {
			continue
		}
		switch rq.Kind {
		case wire.ReqAddWorker, wire.ReqAddTask:
			if rq.Window <= 0 || math.IsNaN(rq.Window) {
				results[i].Status = wire.StatusErr
				results[i].Msg = "window (patience/expiry) must be positive"
				fresh[i] = false
				continue
			}
			at := rq.At
			if math.IsNaN(at) {
				at = now
			}
			var ok bool
			if rq.Kind == wire.ReqAddWorker {
				ok = m.Admitter.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: at, Patience: rq.Window}, &admRes[i], &wg)
			} else {
				ok = m.Admitter.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: at, Expiry: rq.Window}, &admRes[i], &wg)
			}
			if !ok {
				m.Busy++
				results[i].Status = wire.StatusBusy
				results[i].RetryAfter = serverTick.Seconds()
				fresh[i] = false
				continue
			}
			pending[i] = true
		case wire.ReqAdvance:
			// Phase 2.
		default:
			rec.End(sp)
			return reqs, fmt.Errorf("request kind 0x%02x is not mirrored", rq.Kind)
		}
	}
	rec.End(sp)
	sp = rec.Begin("admit.wait", parent, batch)
	wg.Wait()
	rec.End(sp)

	// Phase 2: collect outcomes and record them; advances in batch order.
	// One dedup.record span covers each run of admissions between
	// advances (the result copies inside it are a few ns per request).
	sp = -1
	for i := range reqs {
		rq := &reqs[i]
		if !fresh[i] {
			continue
		}
		switch rq.Kind {
		case wire.ReqAddWorker, wire.ReqAddTask:
			if !pending[i] {
				continue
			}
			if sp < 0 {
				sp = rec.Begin("dedup.record", parent, batch)
			}
			if err := admRes[i].Err; err != nil {
				results[i].Status = wire.StatusErr
				results[i].Msg = err.Error()
			} else {
				results[i].Status = wire.StatusOK
				results[i].Shard = uint32(admRes[i].H.Shard)
				results[i].Local = uint32(admRes[i].H.Local)
				results[i].Epoch = admRes[i].Epoch
				results[i].Time = admRes[i].Admitted
			}
			win.Record(rq.Seq, results[i])
		case wire.ReqAdvance:
			if sp >= 0 {
				rec.End(sp)
				sp = -1
			}
			a := rec.Begin("router.advance", parent, batch)
			m.advance()
			results[i].Status = wire.StatusOK
			results[i].Time = m.now()
			rec.End(a)
		}
	}
	if sp >= 0 {
		rec.End(sp)
	}

	sp = rec.Begin("wire.encode_reply", parent, batch)
	reply := wire.AppendBatchReply(nil, id, results)
	rec.End(sp)
	sp = rec.Begin("wire.frame_write", parent, batch)
	err = cn.WriteFrame(reply)
	rec.End(sp)
	return reqs, err
}

// Pusher is the server half of one event subscription.
type Pusher struct {
	Sub   *ftoa.ShardEventSub
	cn    *wire.Conn
	buf   []ftoa.ShardEvent
	evs   []wire.Event
	frame []byte
}

// NewPusher subscribes at the stream head, as Subscribe(SinceNow) does.
func (m *Mirror) NewPusher(cn *wire.Conn) *Pusher {
	return &Pusher{Sub: m.Router.Subscribe(m.Router.Cursor()), cn: cn, evs: make([]wire.Event, 0, wireEventPage)}
}

// Push mirrors one turn of pushEvents' loop: drain up to a page from the
// broadcast ring, convert, frame, write. It returns how many events went
// out (0 = the subscriber is at the head; the real pusher would Wait).
func (m *Mirror) Push(p *Pusher, parent, batch int) (int, error) {
	rec := m.rec
	sp := rec.Begin("events.next", parent, batch)
	var err error
	p.buf, _, err = p.Sub.Next(wireEventPage, p.buf[:0])
	rec.End(sp)
	if err != nil || len(p.buf) == 0 {
		return 0, err
	}
	sp = rec.Begin("events.encode", parent, batch)
	p.evs = p.evs[:0]
	for i := range p.buf {
		ev := &p.buf[i]
		p.evs = append(p.evs, wire.Event{
			Seq: ev.Seq, Shard: int32(ev.Shard), Kind: byte(ev.Kind),
			Worker: int32(ev.Worker), Task: int32(ev.Task), Time: ev.Time,
			WorkerShard: int32(ev.WorkerShard), TaskShard: int32(ev.TaskShard),
		})
	}
	p.frame = wire.AppendEvents(p.frame[:0], p.Sub.Cursor(), p.evs)
	rec.End(sp)
	sp = rec.Begin("events.frame_write", parent, batch)
	err = p.cn.WriteFrame(p.frame)
	rec.End(sp)
	return len(p.evs), err
}

// socketPair returns the two ends of a fresh loopback TCP connection,
// handshaken as client and server (with the server's frame deadlines).
func socketPair(clientID uint64, shards int) (client, server *wire.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	sc, err := ln.Accept()
	if err != nil {
		cc.Close()
		return nil, nil, err
	}
	client, server = wire.NewConn(cc), wire.NewConn(sc)
	server.ReadTimeout, server.WriteTimeout = 5*time.Minute, 10*time.Second
	errc := make(chan error, 1)
	go func() {
		_, err := wire.ServerHandshake(server, uint32(shards), 0)
		errc <- err
	}()
	if _, err = wire.ClientHandshake(client, clientID); err == nil {
		err = <-errc
	}
	if err != nil {
		client.Close()
		server.Close()
		return nil, nil, err
	}
	return client, server, nil
}
