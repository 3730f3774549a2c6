package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"ftoa/internal/geo"
	"ftoa/internal/guide"
	"ftoa/internal/mathx"
	"ftoa/internal/model"
	"ftoa/internal/shard"
	"ftoa/internal/sim"
	"ftoa/internal/timeslot"
	"ftoa/internal/workload"
)

// The dense-equivalent reference for the paged cell tables: the same
// algorithms with every page materialised at Init, which is the layout
// the tables replaced (one zero cell per guide cell, always present). A
// run over lazily allocated pages must be indistinguishable from it.

type densePOLAR struct{ *POLAR }

func (a densePOLAR) Init(p sim.Platform) {
	a.POLAR.Init(p)
	touchAll(&a.wCells, len(a.g.WorkerCells))
	touchAll(&a.tCells, len(a.g.TaskCells))
}

type densePOLAROP struct{ *POLAROP }

func (a densePOLAROP) Init(p sim.Platform) {
	a.POLAROP.Init(p)
	touchAll(&a.wCells, len(a.g.WorkerCells))
	touchAll(&a.tCells, len(a.g.TaskCells))
}

type denseHybrid struct{ *Hybrid }

func (a denseHybrid) Init(p sim.Platform) {
	a.Hybrid.Init(p)
	touchAll(&a.op.wCells, len(a.op.g.WorkerCells))
	touchAll(&a.op.tCells, len(a.op.g.TaskCells))
}

func touchAll[T any](t *cellTable[T], cells int) {
	for id := 0; id < cells; id++ {
		t.touch(int32(id))
	}
}

// guidedPairs returns each guided algorithm as a (paged, dense) factory
// pair over one shared guide.
func guidedPairs(g *guide.Guide) []struct {
	name         string
	paged, dense func() sim.Algorithm
} {
	return []struct {
		name         string
		paged, dense func() sim.Algorithm
	}{
		{"POLAR",
			func() sim.Algorithm { return NewPOLAR(g) },
			func() sim.Algorithm { return densePOLAR{NewPOLAR(g)} }},
		{"POLAR-OP",
			func() sim.Algorithm { return NewPOLAROP(g) },
			func() sim.Algorithm { return densePOLAROP{NewPOLAROP(g)} }},
		{"Hybrid",
			func() sim.Algorithm { return NewHybrid(g) },
			func() sim.Algorithm { return denseHybrid{NewHybrid(g)} }},
	}
}

func TestCellTablePaging(t *testing.T) {
	tb := newCellTable[opCell](3*pageCells + 1)
	if len(tb.pages) != 4 {
		t.Fatalf("%d cells need 4 pages, got %d", 3*pageCells+1, len(tb.pages))
	}
	for id := int32(0); id < 3*pageCells+1; id++ {
		if tb.peek(id) != nil {
			t.Fatalf("cell %d present before any write", id)
		}
	}
	tb.touch(pageCells + 2).nodeIdx = 7
	if c := tb.peek(pageCells + 2); c == nil || c.nodeIdx != 7 {
		t.Fatalf("written cell reads back %+v", c)
	}
	if c := tb.peek(pageCells); c == nil || c.nodeIdx != 0 {
		t.Fatalf("page neighbour reads back %+v, want a zero cell", c)
	}
	if tb.peek(0) != nil || tb.peek(3*pageCells) != nil {
		t.Fatal("a write materialised another page")
	}
	visited := 0
	tb.each(func(*opCell) { visited++ })
	if visited != pageCells {
		t.Fatalf("each visited %d cells, want the one allocated page (%d)", visited, pageCells)
	}
}

// serveShapeGuide is the guide of the committed benchmark's wire-batch
// workload: 20×20 areas × 32 slots, Poisson counts around 5, 128 edges
// per cell.
func serveShapeGuide(t testing.TB) *guide.Guide {
	t.Helper()
	const side, slots, mean = 20, 32, 5.0
	rng := mathx.NewRNG(14)
	counts := func() []int {
		out := make([]int, slots*side*side)
		for i := range out {
			limit, p := math.Exp(-mean), 1.0
			for {
				p *= rng.Float64()
				if p <= limit {
					break
				}
				out[i]++
			}
		}
		return out
	}
	sl := timeslot.New(64, slots)
	g, err := guide.Build(guide.Config{
		Grid:            geo.NewGrid(geo.NewRect(0, 0, 100, 100), side, side),
		Slots:           sl,
		Velocity:        2,
		WorkerPatience:  4,
		TaskExpiry:      2,
		MaxEdgesPerCell: 128,
		RepSlack:        sl.Width() / 2,
	}, counts(), counts())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGuidedInitFootprint: binding a guided algorithm to a session costs
// a page-pointer table, at most an eighth of one dense cell per guide
// cell — which is what sixteen shards sharing one guide used to pay
// sixteen times over.
func TestGuidedInitFootprint(t *testing.T) {
	g := serveShapeGuide(t)
	cells := uintptr(len(g.WorkerCells) + len(g.TaskCells))
	m, err := sim.NewMatcher(sim.MatcherConfig{
		Mode: sim.AssumeGuide, Velocity: 2, Bounds: geo.NewRect(0, 0, 100, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := m.NewSession(NewSimpleGreedy())
	for _, c := range []struct {
		alg   sim.Algorithm
		dense uintptr
	}{
		{NewPOLAR(g), cells * unsafe.Sizeof(polarCell{})},
		{NewPOLAROP(g), cells * unsafe.Sizeof(opCell{})},
		{NewHybrid(g), cells * unsafe.Sizeof(opCell{})},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.alg.Init(sess)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Init allocates %d bytes for %d cells; dense layout %d", c.alg.Name(), got, cells, c.dense)
		if got > uint64(c.dense)/8 {
			t.Errorf("%s: Init allocates %d bytes, more than 1/8 of the dense %d", c.alg.Name(), got, c.dense)
		}
	}
}

// sessionRun feeds in through a fresh session and returns the full
// lifecycle event stream.
func sessionRun(t *testing.T, in *model.Instance, alg sim.Algorithm, every float64) []sim.SessionEvent {
	t.Helper()
	sess := sessionMatcher(t, in, sim.Strict).NewSession(alg)
	return drive(t, sess, in, every)
}

// drive feeds in through sess, retiring every `every` time units when
// positive, and returns every event emitted.
func drive(t *testing.T, sess *sim.Session, in *model.Instance, every float64) []sim.SessionEvent {
	t.Helper()
	var out []sim.SessionEvent
	last := 0.0
	for _, ev := range in.Events() {
		var err error
		switch ev.Kind {
		case model.WorkerArrival:
			_, err = sess.AddWorker(in.Workers[ev.Index])
		case model.TaskArrival:
			_, err = sess.AddTask(in.Tasks[ev.Index])
		}
		if err != nil {
			t.Fatal(err)
		}
		if now := sess.Now(); every > 0 && now >= last+every {
			out = sess.DrainEvents(out)
			sess.CompactEvents()
			sess.Retire(now)
			last = now
		}
	}
	sess.Finish()
	return sess.DrainEvents(out)
}

func parityInstance(t *testing.T, n int) (workload.Synthetic, *model.Instance) {
	t.Helper()
	cfg := workload.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = n, n
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, in
}

// TestPagedMatchesDenseSession: plain and retiring sessions, and a
// session reused through Reset (whose second run must not see pages the
// first one wrote).
func TestPagedMatchesDenseSession(t *testing.T) {
	cfg, in := parityInstance(t, 400)
	for _, a := range guidedPairs(parityGuide(t, cfg)) {
		t.Run(a.name, func(t *testing.T) {
			for _, every := range []float64{0, cfg.Horizon / 24} {
				want := sessionRun(t, in, a.dense(), every)
				if len(want) == 0 {
					t.Fatal("degenerate reference: no events")
				}
				if got := sessionRun(t, in, a.paged(), every); !reflect.DeepEqual(got, want) {
					t.Fatalf("retire every %v: paged run diverges from the dense one (%d vs %d events)", every, len(got), len(want))
				}
				alg := a.paged()
				sess := sessionMatcher(t, in, sim.Strict).NewSession(alg)
				drive(t, sess, in, every)
				sess.Reset(alg)
				if got := drive(t, sess, in, every); !reflect.DeepEqual(got, want) {
					t.Fatalf("retire every %v: run after Reset diverges from the dense one (%d vs %d events)", every, len(got), len(want))
				}
			}
		})
	}
}

// routerRun drives in through a router and returns the merged event
// stream. Topology changes are applied at the given arrival counts; with
// none, admissions go through the batched admitter (one at a time, so the
// order is fixed) and every seventh receipt is withdrawn again.
func routerRun(t *testing.T, cfg shard.Config, in *model.Instance, rebalance map[int]func(*shard.Topology) *shard.Topology) []shard.Event {
	t.Helper()
	r, err := shard.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var adm *shard.Admitter
	withdrawn := 0
	if rebalance == nil {
		adm = shard.NewAdmitter(r, shard.AdmitterConfig{})
		defer adm.Close()
	}
	for i, ev := range in.Events() {
		if f := rebalance[i]; f != nil {
			if _, err := r.Rebalance(f(r.Topology())); err != nil {
				t.Fatal(err)
			}
		}
		worker := ev.Kind == model.WorkerArrival
		if adm == nil {
			if worker {
				_, _, err = r.AddWorker(in.Workers[ev.Index])
			} else {
				_, _, err = r.AddTask(in.Tasks[ev.Index])
			}
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		var res shard.AdmitResult
		var wg sync.WaitGroup
		if worker && !adm.AddWorker(in.Workers[ev.Index], &res, &wg) || !worker && !adm.AddTask(in.Tasks[ev.Index], &res, &wg) {
			t.Fatal("admission refused")
		}
		wg.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if i%7 != 3 {
			continue
		}
		var live bool
		if worker {
			live, err = r.WithdrawWorker(res.H, res.Epoch)
		} else {
			live, err = r.WithdrawTask(res.H, res.Epoch)
		}
		if err != nil && !errors.Is(err, shard.ErrStaleHandle) {
			t.Fatal(err)
		}
		if live {
			withdrawn++
		}
	}
	r.Finish()
	ghosts := 0
	for _, st := range r.StatsAll(nil) {
		ghosts += st.GhostWorkers + st.GhostTasks
	}
	if (cfg.Halo > 0) != (ghosts > 0) {
		t.Fatalf("halo %v admitted %d ghosts", cfg.Halo, ghosts)
	}
	if adm != nil && withdrawn == 0 {
		t.Fatal("no withdrawal found its object live")
	}
	evs, _, err := r.Events(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestPagedMatchesDenseSharded: under a halo, a ghost is admitted into a
// neighbour session whose region does not contain the ghost's guide cell;
// a Rebalance re-admits live objects into fresh sessions covering new
// regions. Neither needs a special case: the cell's page appears on the
// first write, wherever the cell lies.
func TestPagedMatchesDenseSharded(t *testing.T) {
	cfg, in := parityInstance(t, 400)
	base := shard.Config{
		Matcher: sim.MatcherConfig{
			Mode: sim.Strict, Velocity: in.Velocity, Bounds: in.Bounds,
			Hints: sim.Hints{ExpectedWorkers: len(in.Workers), ExpectedTasks: len(in.Tasks), Horizon: in.Horizon},
		},
		RetireInterval: cfg.Horizon / 24,
	}
	split := func(tp *shard.Topology) *shard.Topology {
		nt, err := tp.Split(0)
		if err != nil {
			t.Fatal(err)
		}
		return nt
	}
	merge := func(tp *shard.Topology) *shard.Topology {
		nt, err := tp.Merge(tp.MergeableQuads()[0][0])
		if err != nil {
			t.Fatal(err)
		}
		return nt
	}
	for _, a := range guidedPairs(parityGuide(t, cfg)) {
		for _, sc := range []struct {
			name       string
			cols, rows int
			halo       float64
			rebalance  map[int]func(*shard.Topology) *shard.Topology
		}{
			{name: "halo ghosts 3x3", cols: 3, rows: 3, halo: shard.HaloForWindow(cfg.Velocity, cfg.TaskExpiry)},
			{name: "split then merge", cols: 1, rows: 1,
				rebalance: map[int]func(*shard.Topology) *shard.Topology{250: split, 550: merge}},
			{name: "split then merge under halo", cols: 2, rows: 1, halo: shard.HaloForWindow(cfg.Velocity, cfg.TaskExpiry),
				rebalance: map[int]func(*shard.Topology) *shard.Topology{200: split, 600: merge}},
		} {
			t.Run(a.name+"/"+sc.name, func(t *testing.T) {
				c := base
				c.Cols, c.Rows, c.Halo = sc.cols, sc.rows, sc.halo
				c.NewAlgorithm = a.dense
				want := routerRun(t, c, in, sc.rebalance)
				c.NewAlgorithm = a.paged
				got := routerRun(t, c, in, sc.rebalance)
				matches := 0
				for _, ev := range want {
					if ev.Kind == sim.EventMatch {
						matches++
					}
				}
				if matches == 0 {
					t.Fatal("degenerate reference: no matches")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("paged router diverges from the dense one (%d vs %d events)", len(got), len(want))
				}
			})
		}
	}
}
