// Command sharded demonstrates the sharded serving layer: one synthetic
// day of arrivals is routed by location into a 2×2 grid of independent
// SimpleGreedy sessions (the hyperlocal partitioning of real-time spatial
// crowdsourcing frontends), with concurrent producers feeding disjoint
// regions in parallel and one consumer tailing the merged lifecycle event
// stream by cursor — matches and expiries alike.
//
// The day is served twice: once with disjoint regions (a worker near a
// border cannot serve a reachable task across it) and once with halo
// mirroring on, where border tasks are ghosted into the neighbor sessions
// whose workers could serve them and cross-shard claims guarantee each
// task still matches at most once — recovering the border matches the
// disjoint grid loses.
package main

import (
	"fmt"
	"sync"

	"ftoa"
)

func main() {
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 400, 400
	in, err := cfg.Generate()
	if err != nil {
		panic(err)
	}

	for _, halo := range []float64{0, ftoa.HaloForWindow(cfg.Velocity, cfg.TaskExpiry)} {
		matched := serveDay(in, cfg, halo)
		if halo == 0 {
			fmt.Printf("disjoint 2x2: %d matched\n\n", matched)
		} else {
			fmt.Printf("halo %.0f 2x2: %d matched\n", halo, matched)
		}
	}
}

func serveDay(in *ftoa.Instance, cfg ftoa.Synthetic, halo float64) int {
	router, err := ftoa.NewShardRouter(ftoa.ShardConfig{
		Matcher: ftoa.MatcherConfig{
			Mode:     ftoa.Strict,
			Velocity: cfg.Velocity,
			Bounds:   cfg.Bounds(),
			Hints: ftoa.Hints{
				ExpectedWorkers: cfg.NumWorkers,
				ExpectedTasks:   cfg.NumTasks,
				Horizon:         cfg.Horizon,
			},
		},
		Cols:         2,
		Rows:         2,
		Halo:         halo,
		NewAlgorithm: func() ftoa.Algorithm { return ftoa.NewSimpleGreedy() },
	})
	if err != nil {
		panic(err)
	}

	// Producers: the recorded day split across goroutines. Each admission
	// takes only its target region's lock (plus, for border objects with
	// a halo, the reachable neighbors' locks one at a time), so disjoint
	// regions run truly in parallel. (Splitting a time-ordered stream
	// across goroutines reorders arrivals slightly; the session clamps
	// them monotone per shard, exactly as a live multi-frontend
	// deployment would.)
	events := in.Events()
	var wg sync.WaitGroup
	const producers = 4
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(events); i += producers {
				ev := events[i]
				switch ev.Kind {
				case ftoa.WorkerArrival:
					if _, _, err := router.AddWorker(in.Workers[ev.Index]); err != nil {
						panic(err)
					}
				case ftoa.TaskArrival:
					if _, _, err := router.AddTask(in.Tasks[ev.Index]); err != nil {
						panic(err)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	router.Finish()

	// Consumer: tail the merged stream from the start. Cross-border
	// matches appear exactly once, under each endpoint's owner identity.
	var merged []ftoa.ShardEvent
	merged, next, err := router.Events(0, merged)
	if err != nil {
		panic(err)
	}
	counts := map[ftoa.SessionEventKind]int{}
	crossShard := 0
	for _, ev := range merged {
		counts[ev.Kind]++
		if ev.Kind == ftoa.EventMatch && ev.WorkerShard != ev.TaskShard {
			crossShard++
		}
	}
	fmt.Printf("merged stream: %d events (cursor %d): %d matches (%d cross-shard), %d worker expiries, %d task expiries\n",
		len(merged), next, counts[ftoa.EventMatch], crossShard, counts[ftoa.EventWorkerExpired], counts[ftoa.EventTaskExpired])

	matched := 0
	for i := 0; i < router.NumShards(); i++ {
		st := router.ShardStats(i)
		matched += st.Matches
		fmt.Printf("shard %d %v: %d workers (%d ghosts), %d tasks (%d ghosts) -> %d matched (%d border), %d+%d expired, %d withdrawn\n",
			st.Shard, st.Bounds, st.Workers, st.GhostWorkers, st.Tasks, st.GhostTasks,
			st.Matches, st.BorderMatches, st.ExpiredWorkers, st.ExpiredTasks,
			st.WithdrawnWorkers+st.WithdrawnTasks)
	}
	return matched
}
