package sim

import (
	"sync"
	"testing"

	"ftoa/internal/geo"
)

// greedyScript matches every arriving task with the first available worker,
// dispatching workers so clones exercise the mutable movement state. The
// dispatch target is where twoByTwo's first task will appear — an
// open-world algorithm cannot peek at unreleased tasks.
func greedyScript() *scriptAlg {
	return &scriptAlg{
		name: "greedy-script",
		onTask: func(p Platform, t int, now float64) {
			for w := 0; w < p.NumWorkers(); w++ {
				if p.WorkerAvailable(w, now) && p.TryMatch(w, t, now) {
					return
				}
			}
		},
		onWorker: func(p Platform, w int, now float64) {
			p.Dispatch(w, geo.Pt(1, 0), now)
		},
	}
}

func TestCloneRunsIndependently(t *testing.T) {
	in := twoByTwo()
	base := NewEngine(in, Strict)
	want := base.Run(greedyScript()).Matching.Size()

	// Concurrent clones must reproduce the sequential result exactly and
	// must not corrupt each other's ground truth.
	const replicas = 8
	got := make([]int, replicas)
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = base.Clone().Run(greedyScript()).Matching.Size()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("clone %d matched %d, sequential matched %d", i, g, want)
		}
	}
	// The original engine still works after its clones ran.
	if again := base.Run(greedyScript()).Matching.Size(); again != want {
		t.Errorf("base engine after clones matched %d, want %d", again, want)
	}
}
