package core

import (
	"cmp"
	"slices"

	"ftoa/internal/flow"
	"ftoa/internal/model"
	"ftoa/internal/spatial"
)

// OPTOptions tunes the offline optimum computation.
type OPTOptions struct {
	// MaxCandidates caps the number of feasible workers considered per
	// task. Zero or negative means unlimited (exact OPT, potentially
	// quadratic). Candidate selection is degree-balanced: each task keeps
	// its nearest feasible workers, but workers already referenced by
	// MaxCandidates other tasks are skipped while the task still has
	// alternatives — a one-sided nearest-K cap would concentrate every
	// task in a dense hotspot onto the same few central workers and
	// cripple the matching.
	MaxCandidates int
}

// OPT computes the offline optimal matching size of Definition 5's
// denominator: the maximum matching over all pairs satisfying the
// Definition 4 predicate, with full knowledge of future arrivals and ideal
// worker pre-movement. The paper computes it with a max-flow over the full
// bipartite graph; this implementation prunes candidate edges with a
// time-bucketed spatial index and runs Hopcroft–Karp.
func OPT(in *model.Instance, opts OPTOptions) model.Matching {
	nw, nt := len(in.Workers), len(in.Tasks)
	if nw == 0 || nt == 0 {
		return model.Matching{}
	}

	// Workers are bucketed by arrival time so a task only probes buckets
	// overlapping its feasibility window Sw ∈ (Sr − Dw, Sr + Dr].
	minArr, maxArr := in.Workers[0].Arrive, in.Workers[0].Arrive
	maxPatience := 0.0
	for i := range in.Workers {
		w := &in.Workers[i]
		if w.Arrive < minArr {
			minArr = w.Arrive
		}
		if w.Arrive > maxArr {
			maxArr = w.Arrive
		}
		if w.Patience > maxPatience {
			maxPatience = w.Patience
		}
	}
	span := maxArr - minArr
	nBuckets := nw / 256
	if nBuckets < 1 {
		nBuckets = 1
	}
	if nBuckets > 256 {
		nBuckets = 256
	}
	if span <= 0 {
		nBuckets = 1
	}
	bucketOf := func(tm float64) int {
		if span <= 0 {
			return 0
		}
		b := int((tm - minArr) / span * float64(nBuckets))
		if b < 0 {
			return 0
		}
		if b >= nBuckets {
			return nBuckets - 1
		}
		return b
	}
	buckets := make([]*spatial.Index, nBuckets)
	counts := make([]int, nBuckets)
	for i := range in.Workers {
		counts[bucketOf(in.Workers[i].Arrive)]++
	}
	for b := range buckets {
		buckets[b] = spatial.NewIndex(in.Bounds, counts[b])
	}
	for i := range in.Workers {
		buckets[bucketOf(in.Workers[i].Arrive)].Insert(i, in.Workers[i].Loc)
	}

	type cand struct {
		w    int32
		dist float64
	}
	adj := make([][]int32, nt)
	var workerDeg []int32
	if opts.MaxCandidates > 0 {
		workerDeg = make([]int32, nw)
	}
	// minKeep edges are kept per task even through saturated workers, so
	// no task is disconnected by the balancing.
	minKeep := 8
	if opts.MaxCandidates > 0 && opts.MaxCandidates < minKeep {
		minKeep = opts.MaxCandidates
	}
	var cands []cand
	var ids []int
	// Tasks are processed in release order (they already are: generators
	// emit them unsorted in general, so sort an index) to keep the degree
	// balancing deterministic and unbiased across the timeline.
	order := make([]int, nt)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(in.Tasks[a].Release, in.Tasks[b].Release); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, t := range order {
		task := &in.Tasks[t]
		// Feasible workers satisfy Sw ∈ (Sr − Dw, Sr + Dr]; within that
		// window the travel budget is at most Sr + Dr − Sw < Dw + Dr.
		lo := bucketOf(task.Release - maxPatience)
		hi := bucketOf(task.Release + task.Expiry)
		maxRadius := (task.Expiry + maxPatience) * in.Velocity
		cands = cands[:0]
		for b := lo; b <= hi; b++ {
			ids = buckets[b].Within(task.Loc, maxRadius, ids[:0])
			for _, w := range ids {
				worker := &in.Workers[w]
				if model.Feasible(worker, task, in.Velocity) {
					cands = append(cands, cand{w: int32(w), dist: worker.Loc.Dist(task.Loc)})
				}
			}
		}
		if opts.MaxCandidates <= 0 || len(cands) <= opts.MaxCandidates {
			edges := make([]int32, len(cands))
			for i, c := range cands {
				edges[i] = c.w
			}
			adj[t] = edges
			if workerDeg != nil {
				for _, c := range cands {
					workerDeg[c.w]++
				}
			}
			continue
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
		adj[t] = make([]int32, 0, opts.MaxCandidates)
		// First pass: nearest workers with spare degree.
		for _, c := range cands {
			if len(adj[t]) >= opts.MaxCandidates {
				break
			}
			if workerDeg[c.w] >= int32(opts.MaxCandidates) {
				continue
			}
			adj[t] = append(adj[t], c.w)
			workerDeg[c.w]++
		}
		// Second pass: guarantee minimum connectivity through saturated
		// workers if balancing left the task nearly edgeless.
		for _, c := range cands {
			if len(adj[t]) >= minKeep {
				break
			}
			present := false
			for _, w := range adj[t] {
				if w == c.w {
					present = true
					break
				}
			}
			if !present {
				adj[t] = append(adj[t], c.w)
				workerDeg[c.w]++
			}
		}
	}

	matchT, _, _ := flow.HopcroftKarp(nt, nw, adj)
	var m model.Matching
	for t, w := range matchT {
		if w >= 0 {
			m.Add(int(w), t)
		}
	}
	return m
}
