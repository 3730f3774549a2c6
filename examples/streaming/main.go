// Command streaming demonstrates the open-world Matcher API: synthetic
// workers and tasks are pushed live into a session running POLAR-OP — no
// pre-materialised instance, no replay engine — and every lifecycle event
// (commits AND the deadline expiries of objects that leave unserved) is
// printed the moment it fires, from the OnEvent callback.
//
// The arrival stream is sampled from the synthetic generator of the
// paper's Table 4 defaults, scaled down; the offline guide is built from
// the generator's expected per-(slot, area) counts, exactly the
// prediction→guide→online pipeline a live deployment would run at the
// start of each day.
package main

import (
	"fmt"

	"ftoa"
)

func main() {
	// Offline phase: predict per-cell counts for the coming horizon and
	// build the guide POLAR-OP will follow.
	cfg := ftoa.DefaultSynthetic()
	cfg.NumWorkers, cfg.NumTasks = 300, 300
	grid := ftoa.NewGrid(cfg.Bounds(), 8, 8)
	slots := ftoa.NewSlotting(cfg.Horizon, 12)
	wCounts, tCounts := cfg.ExpectedCounts(grid, slots)
	g, err := ftoa.BuildGuide(ftoa.GuideConfig{
		Grid:           grid,
		Slots:          slots,
		Velocity:       cfg.Velocity,
		WorkerPatience: cfg.WorkerPatience,
		TaskExpiry:     cfg.TaskExpiry,
	}, wCounts, tCounts)
	if err != nil {
		panic(err)
	}

	// Online phase: open a session and feed arrivals as they happen. The
	// OnEvent callback fires synchronously inside the AddWorker/AddTask/
	// Advance/Finish call that produced the event.
	committed := 0
	m, err := ftoa.NewMatcher(ftoa.MatcherConfig{
		Mode:     ftoa.AssumeGuide,
		Velocity: cfg.Velocity,
		Bounds:   cfg.Bounds(),
		Hints:    ftoa.Hints{Horizon: cfg.Horizon},
		OnEvent: func(ev ftoa.SessionEvent) {
			switch ev.Kind {
			case ftoa.EventMatch:
				committed++
				if committed <= 12 || committed%50 == 0 {
					fmt.Printf("t=%6.1f  match #%d: worker %d ↔ task %d\n",
						ev.Time, committed, ev.Worker, ev.Task)
				}
			case ftoa.EventWorkerExpired:
				if ev.Worker%100 == 0 {
					fmt.Printf("t=%6.1f  worker %d left unserved\n", ev.Time, ev.Worker)
				}
			case ftoa.EventTaskExpired:
				if ev.Task%100 == 0 {
					fmt.Printf("t=%6.1f  task %d expired unserved\n", ev.Time, ev.Task)
				}
			}
		},
	})
	if err != nil {
		panic(err)
	}
	sess := m.NewSession(ftoa.NewPOLAROP(g))

	// Stand-in for live traffic: sample one day of arrivals from the
	// generator and push them in time order, as a frontend would.
	in, err := cfg.Generate()
	if err != nil {
		panic(err)
	}
	for _, ev := range in.Events() {
		switch ev.Kind {
		case ftoa.WorkerArrival:
			if _, err := sess.AddWorker(in.Workers[ev.Index]); err != nil {
				panic(err)
			}
		case ftoa.TaskArrival:
			if _, err := sess.AddTask(in.Tasks[ev.Index]); err != nil {
				panic(err)
			}
		}
	}
	sess.Finish()

	fmt.Printf("\nday over at t=%.1f: %d workers, %d tasks admitted, %d pairs committed\n",
		sess.Now(), sess.NumWorkers(), sess.NumTasks(), sess.Matching().Size())
	// Matched and expired overlap: AssumeGuide is the paper's counting, in
	// which a guide-prescribed pair commits even after one side's deadline
	// has fired, so the two lines can sum past the population.
	fmt.Printf("attrition: %d workers and %d tasks reached their deadline unmatched (assume-guide counting still lets the guide pair them afterwards)\n",
		sess.ExpiredWorkers(), sess.ExpiredTasks())
	stats := sess.Stats()
	fmt.Printf("mean pickup distance %.2f, mean task wait %.2f\n",
		stats.MeanPickupDistance(sess.Matching().Size()),
		stats.MeanTaskWait(sess.Matching().Size()))
}
