package bench

import (
	"os"
	"path/filepath"
	"time"

	"ftoa"
	"ftoa/internal/wire"
)

// Ladder is the single-goroutine decomposition of what the mirror's
// admit.wait span lumps together: the same arrivals replayed through a
// bare session, then a direct router, then (durable workloads) a router
// with a WAL — each rung adding one layer to the one below.
type Ladder struct {
	SimAddUs       float64 // bare ftoa session, same algorithm: us per arrival
	RouterAddUs    float64 // ShardRouter.AddWorker/AddTask, no WAL: us per arrival
	RetireMs       float64 // one manual Router.Retire over the live arenas
	WALAddDeltaUs  float64 // router with WAL minus router without: us per arrival
	WALFlushMs     float64 // Router.WALFlush after the replay
	WALBytesPerReq float64
	RecoverUsPerEv float64 // RecoverShardRouter over that log, per recovered event
}

// arrivalAt spaces arrival i on the paced phase's schedule, so the live
// set the rungs carry matches the paced phase's.
func arrivalAt(i int, rate float64) float64 { return float64(i) / rate }

// RunLadder replays arrivals through each rung. g is the guide for
// guided workloads; walDir a fresh directory for the durable rung.
func RunLadder(w Workload, arrivals []wire.Request, g *ftoa.Guide, walDir string) (*Ladder, error) {
	mk := algorithmFactory(w, g)
	every := AdvanceEvery * Batch // arrivals between clock advances
	out := &Ladder{}
	perArrival := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(len(arrivals))
	}

	// Rung 1: one unsharded session.
	matcher, err := ftoa.NewMatcher(ftoa.MatcherConfig{Mode: ftoa.Strict, Velocity: Velocity, Bounds: bounds()})
	if err != nil {
		return nil, err
	}
	sess := matcher.NewSession(mk())
	var evbuf []ftoa.SessionEvent
	lastRetire := 0.0
	t0 := time.Now()
	for i, rq := range arrivals {
		at := arrivalAt(i, PacedRate)
		if rq.Kind == wire.ReqAddWorker {
			_, err = sess.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: at, Patience: rq.Window})
		} else {
			_, err = sess.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: at, Expiry: rq.Window})
		}
		if err != nil {
			return nil, err
		}
		if (i+1)%every == 0 {
			sess.Advance(at)
			evbuf = sess.DrainEvents(evbuf[:0])
			sess.CompactEvents()
			if at >= lastRetire+RetireSecs {
				sess.Retire(at)
				lastRetire = at
			}
		}
	}
	out.SimAddUs = perArrival(time.Since(t0))

	// Rungs 2 and 3: the router, without and with a WAL.
	replay := func(r *ftoa.ShardRouter) (time.Duration, error) {
		t0 := time.Now()
		for i, rq := range arrivals {
			at := arrivalAt(i, PacedRate)
			var err error
			if rq.Kind == wire.ReqAddWorker {
				_, _, err = r.AddWorker(ftoa.Worker{Loc: ftoa.Pt(rq.X, rq.Y), Arrive: at, Patience: rq.Window})
			} else {
				_, _, err = r.AddTask(ftoa.Task{Loc: ftoa.Pt(rq.X, rq.Y), Release: at, Expiry: rq.Window})
			}
			if err != nil {
				return 0, err
			}
			if (i+1)%every == 0 {
				r.Advance(at)
			}
		}
		return time.Since(t0), nil
	}
	router, err := ftoa.NewShardRouter(shardConfig(w, mk, RetireSecs, ""))
	if err != nil {
		return nil, err
	}
	plain, err := replay(router)
	if err != nil {
		return nil, err
	}
	out.RouterAddUs = perArrival(plain)
	t0 = time.Now()
	router.Retire(arrivalAt(len(arrivals), PacedRate))
	out.RetireMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if !w.WAL {
		return out, nil
	}

	cfg := shardConfig(w, mk, RetireSecs, walDir)
	durable, _, err := ftoa.RecoverShardRouter(cfg)
	if err != nil {
		return nil, err
	}
	logged, err := replay(durable)
	if err != nil {
		return nil, err
	}
	out.WALAddDeltaUs = perArrival(logged) - out.RouterAddUs
	t0 = time.Now()
	if err := durable.WALFlush(); err != nil {
		return nil, err
	}
	out.WALFlushMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err := durable.WALClose(); err != nil {
		return nil, err
	}
	var bytes int64
	segs, _ := filepath.Glob(filepath.Join(walDir, "*"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			bytes += fi.Size()
		}
	}
	out.WALBytesPerReq = float64(bytes) / float64(len(arrivals))
	t0 = time.Now()
	recovered, info, err := ftoa.RecoverShardRouter(cfg)
	took := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if info.Events > 0 {
		out.RecoverUsPerEv = float64(took.Nanoseconds()) / 1e3 / float64(info.Events)
	}
	return out, recovered.WALClose()
}
