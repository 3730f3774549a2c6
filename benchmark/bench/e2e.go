package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftoa/internal/wire"
)

// E2EOptions parameterises one end-to-end run against the real binary.
type E2EOptions struct {
	Workload  Workload
	Seed      int64
	PacedSecs float64 // open-loop phase length
	SatSecs   float64 // closed-loop phase length
	OneBoot   bool    // take no set-up samples beyond the measured instance's own boot
	ServeBin  string  // ftoa-serve built from the commit under test
	WorkDir   string  // scratch directory for this run (created, removed)
	Log       io.Writer
}

// E2EResult is everything one end-to-end run measured.
type E2EResult struct {
	Setups      []float64 // per boot: exec -> SetupReqs admissions acknowledged
	SetupS      float64   // their median
	BootS       float64   // measured instance: exec -> /healthz 200
	WarmupS     float64   // measured instance: SetupReqs -> WarmupReqs acknowledged
	AdmitRPS    float64   // median of SatSegments
	SatSegments []float64 // admissions/s in each 1-s segment of the saturation phase
	RTTp50Ms    float64   // paced phase, reply instant minus due instant, pooled
	RTTp95Ms    float64
	RTTSamples  int
	LagP50Ms    float64
	LagP95Ms    float64
	LagSamples  int
	CPUUsPerReq float64 // server CPU over the whole paced phase / admissions acknowledged in it
	RSSPeakMB   float64 // server VmHWM at the end of the paced phase
	MatchRatio  float64
	LateP95Ms   float64
	ProbeRTTMs  float64
	Attempted   uint64
	Failed      uint64
	Stats       *ServerStats // measured instance, after drain
	Violations  []string     // failed correctness checks; empty = correct
}

// FailRatio is failed over attempted for the whole run.
func (r *E2EResult) FailRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// receipt is one acknowledged admission, kept for the identity checks.
type receipt struct {
	task         bool
	shard, local uint32
	epoch        uint64
	at           float64
}

// tally accumulates what the driver saw on one server instance.
type tally struct {
	mu       sync.Mutex
	requests uint64 // every request sent, advances included
	oks      uint64 // OK results, advances included
	adds     uint64 // OK admissions
	tasks    uint64 // OK task admissions
	busy     uint64
	errs     uint64
	lost     uint64 // requests of batches that died or timed out
	receipts []receipt
}

// absorb tallies one batch outcome and returns its OK admissions.
func (t *tally) absorb(reqs []wire.Request, res []wire.Result, err error) (adds, tasks uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests += uint64(len(reqs))
	if err != nil || len(res) != len(reqs) {
		t.lost += uint64(len(reqs))
		return 0, 0
	}
	for i := range res {
		switch res[i].Status {
		case wire.StatusOK:
			t.oks++
			if res[i].Kind == wire.ReqAdvance {
				continue
			}
			adds++
			task := res[i].Kind == wire.ReqAddTask
			if task {
				tasks++
			}
			t.receipts = append(t.receipts, receipt{task, res[i].Shard, res[i].Local, res[i].Epoch, res[i].Time})
		case wire.StatusBusy:
			t.busy++
		default:
			t.errs++
		}
	}
	t.adds += adds
	t.tasks += tasks
	return adds, tasks
}

// failed is every request that did not complete OK.
func (t *tally) failed() uint64 { return t.busy + t.errs + t.lost }

// matchRec is one EventMatch as a subscriber received it.
type matchRec struct {
	recv, at       float64 // client receive instant; server event time
	wshard, tshard int32
	worker, task   int32
}

// subscriber checks one event stream for density and keeps its matches.
type subscriber struct {
	clock   func() float64
	mu      sync.Mutex
	next    uint64
	started bool
	gaps    uint64
	gone    uint64
	matches []matchRec
}

func (s *subscriber) onEvents(next uint64, evs []wire.Event) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		if s.started && ev.Seq != s.next {
			s.gaps++
		}
		s.started, s.next = true, ev.Seq+1
		if ev.Kind == eventMatch {
			s.matches = append(s.matches, matchRec{now, ev.Time, ev.WorkerShard, ev.TaskShard, ev.Worker, ev.Task})
		}
	}
}

func (s *subscriber) onGone(uint64) {
	s.mu.Lock()
	s.gone++
	s.mu.Unlock()
}

func (s *subscriber) snapshot() (gaps, gone uint64, matches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gaps, s.gone, len(s.matches)
}

// instance is one server process plus the driver's connections to it.
type instance struct {
	srv   *Server
	w     Workload
	conns []*wire.Client // load connections
	extra []*wire.Client // passive subscriber connections
	subs  []*subscriber
	t     tally
	// recovered is /stats as a durable instance came up, before it admitted
	// anything: what recovery rebuilt.
	recovered *ServerStats
	bootS     float64       // exec -> /healthz 200, seconds
	batch     atomic.Uint64 // batches issued, for the Advance cadence
}

// dial opens the load connections and the workload's subscriptions: a
// single subscription rides load connection 0 (so the run stays within
// nproc sockets); more than one get passive connections of their own.
func (in *instance) dial(clock func() float64, seed int64) error {
	id := uint64(seed)<<16 | 1
	for i := 0; i < LoadConns; i++ {
		cl, err := wire.DialID(in.srv.WireAddr, id+uint64(i))
		if err != nil {
			return err
		}
		cl.SetRequestTimeout(10 * time.Second)
		in.conns = append(in.conns, cl)
	}
	for i := 0; i < in.w.Subscribers; i++ {
		cl := in.conns[0]
		if in.w.Subscribers > 1 {
			var err error
			if cl, err = wire.DialID(in.srv.WireAddr, id+uint64(LoadConns+i)); err != nil {
				return err
			}
			in.extra = append(in.extra, cl)
		}
		sub := &subscriber{clock: clock}
		in.subs = append(in.subs, sub)
		if err := cl.Subscribe(wire.SinceNow, sub.onEvents, sub.onGone); err != nil {
			return err
		}
	}
	// A subscription starts at the stream head as of the moment the server
	// opens it, asynchronously to the Subscribe frame: wait until all are
	// open, so no admission's events precede a stream's first cursor.
	for deadline := time.Now().Add(5 * time.Second); len(in.subs) > 0; time.Sleep(time.Millisecond) {
		st, err := in.srv.Stats()
		if err != nil {
			return err
		}
		if st.Events.Subscribers == len(in.subs) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d subscriptions opened", st.Events.Subscribers, len(in.subs))
		}
	}
	return nil
}

// stop closes the connections and SIGTERMs the server; calling it again
// is harmless.
func (in *instance) stop() error {
	for _, cl := range append(in.conns, in.extra...) {
		cl.Close()
	}
	in.conns, in.extra = nil, nil
	return in.srv.Stop()
}

// nextBatch copies the pool chunk for one batch into dst (fresh Seq 0, so
// Client.Do assigns new idempotency tokens) and appends the Advance that
// every AdvanceEvery-th batch carries.
func (in *instance) nextBatch(dst []wire.Request, r *run, size int) []wire.Request {
	off := int((r.cursor.Add(uint64(size)) - uint64(size)) % uint64(len(r.pool)-size))
	dst = append(dst[:0], r.pool[off:off+size]...)
	if in.batch.Add(1)%AdvanceEvery == 0 {
		dst = append(dst, wire.Request{Kind: wire.ReqAdvance})
	}
	return dst
}

// closedLoop sends batches of size with depth senders per load
// connection, each waiting for its reply before its next send, for as long
// as more() says so. done, when set, is told each batch's completion
// instant and OK admissions.
func (in *instance) closedLoop(r *run, size, depth int, more func() bool, done func(at float64, adds uint64)) {
	var wg sync.WaitGroup
	for _, cl := range in.conns {
		for d := 0; d < depth; d++ {
			wg.Add(1)
			go func(cl *wire.Client) {
				defer wg.Done()
				var buf []wire.Request
				for more() {
					buf = in.nextBatch(buf, r, size)
					res, err := cl.Do(buf)
					adds, _ := in.t.absorb(buf, res, err)
					if done != nil {
						done(r.clock(), adds)
					}
					if err != nil {
						return
					}
				}
			}(cl)
		}
	}
	wg.Wait()
}

// admitting returns a closedLoop predicate that lets n requests through
// in batches of Batch, batch k no sooner than k*Batch/rate seconds after
// the first (rate 0: as fast as the server answers).
func admitting(n int, rate float64) func() bool {
	var issued atomic.Int64
	start := time.Now()
	return func() bool {
		k := issued.Add(Batch)
		if k > int64(n) {
			return false
		}
		if rate > 0 {
			realClock{}.SleepUntil(start.Add(time.Duration(float64(k-Batch) / rate * float64(time.Second))))
		}
		return true
	}
}

// run is the state one end-to-end run threads through its phases.
type run struct {
	opt      E2EOptions
	w        Workload
	base     time.Time // zero of the driver clock
	pool     []wire.Request
	cursor   atomic.Uint64 // next unread pool entry
	guide    string        // generated counts.csv, "" without a guide
	serveLog string
	res      *E2EResult

	attempted, failed uint64 // over every instance of the run
}

// clock is seconds on the driver's monotonic clock.
func (r *run) clock() float64 { return time.Since(r.base).Seconds() }

func (r *run) logf(format string, a ...any) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, format+"\n", a...)
	}
}

// retire folds a finished instance's tallies into the run totals.
func (r *run) retire(in *instance) {
	r.attempted += in.t.requests
	r.failed += in.t.failed()
}

// RunE2E performs one full end-to-end run: optional WAL pre-population,
// the timed boots, warm-up to steady state, the paced and saturation
// phases, drain, verification, shutdown.
func RunE2E(opt E2EOptions) (*E2EResult, error) {
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opt.WorkDir)
	r := &run{
		opt: opt, w: opt.Workload, base: time.Now(), res: &E2EResult{},
		serveLog: filepath.Join(filepath.Dir(opt.WorkDir), "serve-"+opt.Workload.Name+".log"),
	}
	os.Remove(r.serveLog)

	// Inputs: everything the servers will see is drawn from the seed here,
	// before any clock starts.
	rng := rand.New(rand.NewSource(opt.Seed))
	r.pool = r.w.Arrivals(rng, 1<<18)
	if r.w.Guide {
		r.guide = filepath.Join(opt.WorkDir, "counts.csv")
		if err := os.WriteFile(r.guide, []byte(r.w.CountsCSV(rng)), 0o644); err != nil {
			return nil, err
		}
	}

	var pre *ServerStats // the throw-away instance's last /stats (durable workloads)
	if r.w.WAL {
		var err error
		if pre, err = r.fillWAL(); err != nil {
			return nil, fmt.Errorf("pre-populating the WAL: %w", err)
		}
	}
	// Set-up is sampled at every gap between the measured phases (see
	// discardedBoot); the measured instance's own boot is one more sample.
	if err := r.discardedBoot(); err != nil {
		return nil, err
	}
	in, err := r.timedBoot()
	if in != nil {
		defer in.stop()
	}
	if err != nil {
		return nil, err
	}
	r.res.BootS = in.bootS

	// Warm-up to steady state: both dedup windows full twice over, the
	// live set flat (>= 2 expiry windows of load). Closed loop, but no
	// faster than WarmupRate, so that how many objects are alive at once —
	// and with it the peak memory — does not follow the server's speed.
	t0 := r.clock()
	in.closedLoop(r, Batch, 2, admitting(WarmupReqs-SetupReqs, WarmupRate), nil)
	r.res.WarmupS = r.clock() - t0
	if err := r.discardedBoot(); err != nil {
		return nil, err
	}

	offset, err := r.calibrate(in)
	if err != nil {
		return nil, err
	}
	paced, err := r.pacedPhase(in)
	if err != nil {
		return nil, err
	}
	if err := r.discardedBoot(); err != nil {
		return nil, err
	}
	r.satPhase(in)
	if err := r.drain(in, pre); err != nil {
		return nil, err
	}
	if err := r.discardedBoot(); err != nil {
		return nil, err
	}
	r.res.SetupS = Median(r.res.Setups)
	r.eventFigures(in, paced, offset)

	res := r.res
	res.Violations = append(res.Violations, in.verify(res, pre)...)
	for _, sub := range in.subs {
		gaps, gone, _ := sub.snapshot()
		r.failed += gaps + gone
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	if r.failed > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d requests failed (BUSY, ERR, lost batches, seq gaps)", r.failed, r.attempted))
	}
	return res, nil
}

// fillWAL is the durable workloads' prologue: a throw-away instance
// admits Prepopulate requests into wal-seed and is SIGTERMed; every timed
// boot then recovers a private copy of that directory.
func (r *run) fillWAL() (*ServerStats, error) {
	// A small dedup window keeps the fill cheap (the seed sweeps the whole
	// window on every request); it must still exceed the pipelined seqs in
	// flight, which Client.Do may write out of assignment order.
	flags := append(r.w.ServerFlags(r.guide, r.walDir("seed")), "-wire-dedup-window", "1024")
	srv, err := StartServer(r.opt.ServeBin, flags, r.serveLog)
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv}
	defer in.stop()
	if _, err := srv.WaitHealthy(30 * time.Second); err != nil {
		return nil, err
	}
	if err := in.dial(r.clock, r.opt.Seed+1000); err != nil {
		return nil, err
	}
	in.closedLoop(r, Batch, 2, admitting(r.w.Prepopulate, 0), nil)
	pre, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	if err := in.stop(); err != nil {
		return nil, err
	}
	r.retire(in)
	if got := uint64(pre.Owned()); got != in.t.adds {
		r.res.Violations = append(r.res.Violations, fmt.Sprintf("throw-away instance: /stats owns %d admissions, driver was acknowledged %d", got, in.t.adds))
	}
	r.logf("pre-populated WAL: %d admissions, %d matches", in.t.adds, pre.Matches)
	return pre, nil
}

func (r *run) walDir(name string) string { return filepath.Join(r.opt.WorkDir, "wal-"+name) }

// timedBoot is one set-up sample: exec, healthy, dial, SetupReqs
// admissions, timed from exec. The instance is returned running (even on
// error once it was started, so the caller can stop it).
func (r *run) timedBoot() (*instance, error) {
	b := len(r.res.Setups)
	walDir := ""
	if r.w.WAL {
		walDir = r.walDir(fmt.Sprint(b))
		if err := copyDir(r.walDir("seed"), walDir); err != nil {
			return nil, err
		}
	}
	srv, err := StartServer(r.opt.ServeBin, r.w.ServerFlags(r.guide, walDir), r.serveLog)
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv, w: r.w}
	boot, err := srv.WaitHealthy(60 * time.Second)
	if err != nil {
		return in, err
	}
	if r.w.WAL {
		if in.recovered, err = srv.Stats(); err != nil {
			return in, err
		}
	}
	if err := in.dial(r.clock, r.opt.Seed+int64(b)); err != nil {
		return in, err
	}
	in.closedLoop(r, Batch, 1, admitting(SetupReqs, 0), nil)
	setup := time.Since(srv.Started).Seconds()
	r.res.Setups = append(r.res.Setups, setup)
	in.bootS = boot.Seconds()
	r.logf("boot %d: healthy after %.3fs, setup %.3fs", b, boot.Seconds(), setup)
	return in, nil
}

// discardedBoot takes one set-up sample on an instance that is stopped
// again at once. A boot lasts a fraction of a second and the host's slow
// spells last many seconds, so samples taken back to back all see the
// same spell: one is taken at each gap of the run instead — before the
// measured boot, after warm-up, after the paced phase, after the drain
// — while the measured instance sits idle or is gone.
func (r *run) discardedBoot() error {
	if r.opt.OneBoot {
		return nil
	}
	in, err := r.timedBoot()
	if in != nil {
		if stopErr := in.stop(); err == nil {
			err = stopErr
		}
		r.retire(in)
	}
	if err != nil {
		return fmt.Errorf("set-up sample %d: %w", len(r.res.Setups), err)
	}
	return nil
}

// calibrate estimates the server-minus-driver clock offset from 20
// Advance round trips on an idle connection.
func (r *run) calibrate(in *instance) (offset float64, err error) {
	var probes []Probe
	for i := 0; i < 20; i++ {
		rq := []wire.Request{{Kind: wire.ReqAdvance}}
		send := r.clock()
		out, err := in.conns[LoadConns-1].Do(rq)
		recv := r.clock()
		in.t.absorb(rq, out, err)
		if err != nil {
			return 0, fmt.Errorf("clock probe: %w", err)
		}
		probes = append(probes, Probe{Send: send, Recv: recv, Server: out[0].Time})
	}
	offset, rtt := ClockOffset(probes)
	r.res.ProbeRTTMs = rtt * 1e3
	return offset, nil
}

// pacedWindow is what later phases need to know about the paced phase.
type pacedWindow struct {
	from, to float64 // driver clock
	tasks    uint64  // task admissions acknowledged
}

// pacedPhase is the open loop at the workload's frozen rate: every batch
// is timed from its due instant, and the server's CPU time is read
// before the first and after the last.
func (r *run) pacedPhase(in *instance) (pacedWindow, error) {
	res := r.res
	n := int(r.opt.PacedSecs * PacedRate / float64(Batch))
	batches := make([][]wire.Request, n)
	for i := range batches {
		batches[i] = in.nextBatch(nil, r, Batch)
	}
	var (
		mu       sync.Mutex
		adds     uint64
		rtts     []float64
		win      pacedWindow
		inflight sync.WaitGroup
	)
	cpu0, err := in.srv.CPU()
	if err != nil {
		return win, err
	}
	start := time.Now().Add(5 * time.Millisecond)
	win.from = start.Sub(r.base).Seconds()
	interval := time.Duration(float64(time.Second) * float64(Batch) / PacedRate)
	late := OpenLoop(realClock{}, start, interval, n, func(i int, due time.Time) {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			out, err := in.conns[i%LoadConns].Do(batches[i])
			rtt := time.Since(due).Seconds() * 1e3
			a, t := in.t.absorb(batches[i], out, err)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				rtts = append(rtts, rtt)
			}
			adds += a
			win.tasks += t
		}()
	})
	inflight.Wait()
	win.to = r.clock()
	cpu1, err := in.srv.CPU()
	if err != nil {
		return win, err
	}
	// Peak memory is read here, after a fixed amount of work, not at the
	// drain: how many objects are live in the saturation phase follows the
	// admission rate, so a peak taken there would charge a faster server
	// for its speed.
	if res.RSSPeakMB, err = in.srv.PeakRSSMB(); err != nil {
		return win, err
	}

	sort.Float64s(rtts)
	sort.Float64s(late)
	res.RTTSamples = len(rtts)
	res.RTTp50Ms, res.RTTp95Ms = Percentile(rtts, 0.5), Percentile(rtts, 0.95)
	res.LateP95Ms = Percentile(late, 0.95) * 1e3
	if adds > 0 {
		res.CPUUsPerReq = float64(cpu1-cpu0) / 1e3 / float64(adds)
	}
	return win, nil
}

// satPhase is the closed loop at fixed pipeline depth; driver.admit_rps
// is the median of its 1-s segment admission rates.
func (r *run) satPhase(in *instance) {
	var mu sync.Mutex
	var at, adds []float64
	from := r.clock()
	in.closedLoop(r, Batch, SatDepth,
		func() bool { return r.clock()-from < r.opt.SatSecs },
		func(t float64, n uint64) {
			mu.Lock()
			at, adds = append(at, t-from), append(adds, float64(n))
			mu.Unlock()
		})
	segs := int(r.opt.SatSecs)
	r.res.SatSegments = SegmentRates(at, adds, r.opt.SatSecs/float64(segs), segs)
	r.res.AdmitRPS = Median(r.res.SatSegments)
}

// drain sends one last Advance, waits until every stream has delivered
// every match the server committed (expiries keep trickling in for a
// deadline window after the load stops, so "quiet" is no criterion),
// reads the final /stats, and stops the server.
func (r *run) drain(in *instance, pre *ServerStats) error {
	res := r.res
	rq := []wire.Request{{Kind: wire.ReqAdvance}}
	out, err := in.conns[0].Do(rq)
	in.t.absorb(rq, out, err)
	if res.Stats, err = in.srv.Stats(); err != nil {
		return err
	}
	want := res.Stats.Matches
	if pre != nil {
		want -= pre.Matches
	}
	in.awaitMatches(want, 3*time.Second)
	for _, cl := range append(in.conns, in.extra...) {
		if e := cl.Err(); e != nil && !errors.Is(e, wire.ErrClosed) {
			res.Violations = append(res.Violations, fmt.Sprintf("connection died: %v", e))
		}
	}
	if err := in.stop(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("server shutdown: %v", err))
	}
	r.retire(in)
	return nil
}

// eventFigures computes event lag and match ratio over the paced window
// from the matches the subscribers kept.
func (r *run) eventFigures(in *instance, paced pacedWindow, offset float64) {
	res := r.res
	var lags []float64
	var matches int
	for si, sub := range in.subs {
		for _, m := range sub.matches {
			if m.recv < paced.from || m.recv > paced.to {
				continue
			}
			lags = append(lags, (m.recv-(m.at-offset))*1e3)
			if si == 0 {
				matches++
			}
		}
	}
	sort.Float64s(lags)
	res.LagSamples = len(lags)
	res.LagP50Ms, res.LagP95Ms = Percentile(lags, 0.5), Percentile(lags, 0.95)
	if paced.tasks > 0 {
		res.MatchRatio = float64(matches) / float64(paced.tasks)
	}
}

// awaitMatches waits until every subscriber has received want match
// events or the timeout passes; verify reports any that fell short.
func (in *instance) awaitMatches(want int, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		behind := false
		for _, s := range in.subs {
			if _, _, matches := s.snapshot(); matches < want {
				behind = true
			}
		}
		if !behind {
			return
		}
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
