// Package flow implements the network-flow and bipartite-matching substrate
// the paper's offline components rely on: Algorithm 1 builds the offline
// guide with a max-flow computation (the paper uses Ford–Fulkerson and notes
// any max-flow algorithm works), the competitive-ratio analysis uses the
// max-flow = min-cut duality, and the optional travel-cost-aware guide uses
// min-cost max-flow. OPT is a maximum-cardinality bipartite matching, for
// which Hopcroft–Karp is provided.
//
// All algorithms work on integer capacities (unit capacities in the FTOA
// constructions) and are deterministic.
package flow

import (
	"fmt"
	"math"
)

// Network is a directed flow network over paired residual edges: edge i
// and edge i^1 are a forward/backward pair. Only residual capacities are
// stored — a backward edge starts at zero, so the flow on a forward edge
// is its partner's residual — and capacities are 32-bit, which covers the
// guide's int32 cell counts at a third of the memory of separate 64-bit
// capacity and flow arrays. Adjacency is a CSR index over the edge
// arrays, built by the first solve after the last AddEdge.
type Network struct {
	n    int
	to   []int32
	res  []int32 // residual capacity
	cost []int64 // nil until an edge with non-zero cost is added

	// CSR adjacency: the edges leaving node u are adj[start[u]:start[u+1]],
	// in insertion order. nil while edges are being added.
	start []int32
	adj   []int32

	// Scratch reused across MaxFlowDinic calls so repeated solves on one
	// network (re-solves after Reset) allocate nothing per call. Sized
	// lazily to n on first use.
	level []int32
	iter  []int32
	queue []int32
}

// NewNetwork creates a network with n nodes and room for edges forward
// edges, so a caller that knows its edge count allocates the edge arrays
// exactly once (adding more still works; the arrays then grow). Node ids
// are 0..n-1; callers conventionally reserve two of them for source and
// sink.
func NewNetwork(n, edges int) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("flow: non-positive node count %d", n))
	}
	if edges < 0 {
		panic(fmt.Sprintf("flow: negative edge count %d", edges))
	}
	return &Network{
		n:   n,
		to:  make([]int32, 0, 2*edges),
		res: make([]int32, 0, 2*edges),
	}
}

// NumNodes returns the number of nodes.
func (g *Network) NumNodes() int { return g.n }

// NumEdges returns the number of forward edges added via AddEdge.
func (g *Network) NumEdges() int { return len(g.to) / 2 }

// AddEdge adds a directed edge from u to v with the given capacity and zero
// cost, returning the edge id (usable with EdgeFlow). Capacity must be
// non-negative.
func (g *Network) AddEdge(u, v int, capacity int32) int {
	return g.AddEdgeCost(u, v, capacity, 0)
}

// AddEdgeCost adds a directed edge from u to v with the given capacity and
// per-unit cost, returning the edge id. The cost array only exists on
// networks that carry a non-zero cost.
func (g *Network) AddEdgeCost(u, v int, capacity int32, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.res = append(g.res, capacity, 0)
	if cost != 0 && g.cost == nil {
		g.cost = make([]int64, id, cap(g.to))
	}
	if g.cost != nil {
		g.cost = append(g.cost, cost, -cost)
	}
	g.start, g.adj = nil, nil
	return id
}

// EdgeFlow returns the flow currently routed through the forward edge with
// the given id (as returned by AddEdge/AddEdgeCost).
func (g *Network) EdgeFlow(id int) int32 { return g.res[id^1] }

// EdgeEndpoints returns (u, v) for the forward edge id.
func (g *Network) EdgeEndpoints(id int) (u, v int) {
	return int(g.to[id^1]), int(g.to[id])
}

// Reset zeroes all flow, allowing the same topology to be re-solved.
func (g *Network) Reset() {
	for id := 0; id < len(g.res); id += 2 {
		g.res[id] += g.res[id+1]
		g.res[id+1] = 0
	}
}

// push routes amount f through edge id (and -f through its pair).
func (g *Network) push(id int32, f int32) {
	g.res[id] -= f
	g.res[id^1] += f
}

// index builds the CSR adjacency if edges were added since the last solve.
// Within a node, edges keep their insertion order, which is what makes
// the solvers deterministic.
func (g *Network) index() {
	if g.start != nil {
		return
	}
	start := make([]int32, g.n+1)
	for id := range g.to {
		start[g.to[id^1]+1]++ // the tail of edge id is the head of its pair
	}
	for u := 0; u < g.n; u++ {
		start[u+1] += start[u]
	}
	adj := make([]int32, len(g.to))
	fill := make([]int32, g.n)
	for id := range g.to {
		u := g.to[id^1]
		adj[start[u]+fill[u]] = int32(id)
		fill[u]++
	}
	g.start, g.adj = start, adj
}

// out returns the ids of the edges leaving u; index must have run.
func (g *Network) out(u int32) []int32 { return g.adj[g.start[u]:g.start[u+1]] }

// MaxFlowDinic computes the maximum flow from s to t using Dinic's
// algorithm (BFS level graph + blocking-flow DFS). It runs on top of any
// existing flow (so it can extend a partial solution) and returns the amount
// of additional flow pushed.
func (g *Network) MaxFlowDinic(s, t int) int64 {
	if s == t {
		return 0
	}
	g.index()
	if cap(g.level) < g.n {
		g.level = make([]int32, g.n)
		g.iter = make([]int32, g.n)
		g.queue = make([]int32, 0, g.n)
	}
	var total int64
	for g.levels(s, t) {
		copy(g.iter[:g.n], g.start)
		total += g.blockingFlow(s, t)
	}
	return total
}

// levels labels nodes with their BFS distance from s over residual arcs
// and reports whether t is reachable. It stops once it labels t: every
// shallower level is complete by then, and a node at t's depth or deeper
// lies on no shortest augmenting path, so leaving it unlabelled only
// spares the blocking flow a dead end it would have pruned.
func (g *Network) levels(s, t int) bool {
	level, to, res := g.level[:g.n], g.to, g.res
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(g.queue[:0], int32(s)) // each node enters once: no growth
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, id := range g.out(u) {
			if res[id] <= 0 {
				continue
			}
			if v := to[id]; level[v] < 0 {
				level[v] = level[u] + 1
				if int(v) == t {
					return true
				}
				queue = append(queue, v)
			}
		}
	}
	return false
}

// blockingFlow saturates the level graph with augmenting paths, found by
// a depth-first search that keeps its path as an explicit arc stack.
// After each augmentation it retreats to the tail of the first arc the
// augmentation saturated and searches on from there: a search restarted
// from s would walk the unsaturated prefix back down to the same arc,
// because iter still points at every arc of the path. The paths, and so
// the flow on every arc, are the ones the restarting search finds.
func (g *Network) blockingFlow(s, t int) int64 {
	level, iter, to, res, adj := g.level, g.iter, g.to, g.res, g.adj
	path := g.queue[:0] // the BFS queue is free until the next phase
	var total int64
	for u := int32(s); ; {
		if int(u) == t {
			f := int32(math.MaxInt32)
			for _, id := range path {
				f = min(f, res[id])
			}
			for _, id := range path {
				g.push(id, f)
			}
			total += int64(f)
			k := 0
			for res[path[k]] > 0 {
				k++
			}
			u, path = to[path[k]^1], path[:k]
			continue
		}
		next, end, want := iter[u], g.start[u+1], level[u]+1
		for next < end && (res[adj[next]] <= 0 || level[to[adj[next]]] != want) {
			next++
		}
		iter[u] = next
		if next < end {
			path = append(path, adj[next])
			u = to[adj[next]]
			continue
		}
		level[u] = -1 // dead end; prune
		if len(path) == 0 {
			return total
		}
		id := path[len(path)-1]
		path = path[:len(path)-1]
		u = to[id^1]
		iter[u]++
	}
}

// augment pushes the bottleneck residual along the s-t path recorded in
// parentEdge and returns it.
func (g *Network) augment(parentEdge []int32, s, t int) int32 {
	bottleneck := int32(math.MaxInt32)
	for v := int32(t); v != int32(s); {
		id := parentEdge[v]
		bottleneck = min(bottleneck, g.res[id])
		v = g.to[id^1]
	}
	for v := int32(t); v != int32(s); {
		id := parentEdge[v]
		g.push(id, bottleneck)
		v = g.to[id^1]
	}
	return bottleneck
}

// MinCostMaxFlow computes a maximum flow of minimum total cost from s to t
// using successive shortest augmenting paths with SPFA (costs may be
// negative only on residual arcs, which SPFA handles). It returns the flow
// value and its total cost. Intended for the travel-cost-aware guide, where
// edge costs are travel times scaled to integers.
func (g *Network) MinCostMaxFlow(s, t int) (flowValue, totalCost int64) {
	g.index()
	const inf = int64(1) << 62
	dist := make([]int64, g.n)
	inQueue := make([]bool, g.n)
	parentEdge := make([]int32, g.n)

	for {
		for i := range dist {
			dist[i] = inf
			inQueue[i] = false
			parentEdge[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		inQueue[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inQueue[u] = false
			for _, id := range g.out(u) {
				v := g.to[id]
				if g.res[id] <= 0 {
					continue
				}
				nd := dist[u]
				if g.cost != nil {
					nd += g.cost[id]
				}
				if nd < dist[v] {
					dist[v] = nd
					parentEdge[v] = id
					if !inQueue[v] {
						inQueue[v] = true
						queue = append(queue, v)
					}
				}
			}
		}
		if dist[t] >= inf {
			return flowValue, totalCost
		}
		bottleneck := int64(g.augment(parentEdge, s, t))
		flowValue += bottleneck
		totalCost += bottleneck * dist[t]
	}
}
