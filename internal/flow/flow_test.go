package flow

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ftoa/internal/mathx"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS example, max flow 23.
	g := NewNetwork(6, 10)
	s, t0 := 0, 5
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlowDinic(s, t0); got != 23 {
		t.Errorf("Dinic = %d, want 23", got)
	}
	g.Reset()
	if got := g.MaxFlowFordFulkerson(s, t0); got != 23 {
		t.Errorf("FordFulkerson = %d, want 23", got)
	}
}

func TestMaxFlowTrivialCases(t *testing.T) {
	g := NewNetwork(3, 0) // grows past its sizing
	if g.MaxFlowDinic(0, 0) != 0 {
		t.Error("s==t should be 0")
	}
	if g.MaxFlowDinic(0, 2) != 0 {
		t.Error("no edges should be 0")
	}
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	if got := g.MaxFlowDinic(0, 2); got != 3 {
		t.Errorf("chain = %d, want 3", got)
	}
}

func TestEdgeFlowAndEndpoints(t *testing.T) {
	g := NewNetwork(4, 4)
	e0 := g.AddEdge(0, 1, 2)
	e1 := g.AddEdge(1, 3, 2)
	e2 := g.AddEdge(0, 2, 1)
	e3 := g.AddEdge(2, 3, 5)
	g.MaxFlowDinic(0, 3)
	if g.EdgeFlow(e0) != 2 || g.EdgeFlow(e1) != 2 {
		t.Errorf("top path flows = %d,%d, want 2,2", g.EdgeFlow(e0), g.EdgeFlow(e1))
	}
	if g.EdgeFlow(e2) != 1 || g.EdgeFlow(e3) != 1 {
		t.Errorf("bottom path flows = %d,%d, want 1,1", g.EdgeFlow(e2), g.EdgeFlow(e3))
	}
	u, v := g.EdgeEndpoints(e1)
	if u != 1 || v != 3 {
		t.Errorf("EdgeEndpoints = (%d,%d), want (1,3)", u, v)
	}
}

// buildRandomNetwork makes a random bipartite s-L-R-t unit network, the
// exact shape Algorithm 1 uses.
func buildRandomBipartite(rng *mathx.RNG, nl, nr int, p float64) (*Network, [][]int32, int, int) {
	n := nl + nr + 2
	s, t0 := n-2, n-1
	g := NewNetwork(n, nl+nr)
	adj := make([][]int32, nl)
	for u := 0; u < nl; u++ {
		g.AddEdge(s, u, 1)
	}
	for v := 0; v < nr; v++ {
		g.AddEdge(nl+v, t0, 1)
	}
	for u := 0; u < nl; u++ {
		for v := 0; v < nr; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, nl+v, 1)
				adj[u] = append(adj[u], int32(v))
			}
		}
	}
	return g, adj, s, t0
}

func TestDinicEqualsFordFulkersonEqualsHopcroftKarp(t *testing.T) {
	rng := mathx.NewRNG(2024)
	for trial := 0; trial < 60; trial++ {
		nl := rng.Intn(12) + 1
		nr := rng.Intn(12) + 1
		p := rng.Float64() * 0.6
		g, adj, s, t0 := buildRandomBipartite(rng, nl, nr, p)
		dinic := g.MaxFlowDinic(s, t0)
		g.Reset()
		ff := g.MaxFlowFordFulkerson(s, t0)
		_, _, hk := HopcroftKarp(nl, nr, adj)
		if dinic != ff || dinic != int64(hk) {
			t.Fatalf("trial %d: dinic=%d ff=%d hk=%d", trial, dinic, ff, hk)
		}
	}
}

func TestFlowConservationAndCapacity(t *testing.T) {
	rng := mathx.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(10) + 4
		g := NewNetwork(n, 3*n)
		s, t0 := 0, n-1
		type edge struct {
			id, u, v int
			cap      int32
		}
		var edges []edge
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int32(rng.Intn(10) + 1)
			id := g.AddEdge(u, v, c)
			edges = append(edges, edge{id, u, v, c})
		}
		g.MaxFlowDinic(s, t0)
		net := make([]int32, n)
		for _, e := range edges {
			f := g.EdgeFlow(e.id)
			if f < 0 || f > e.cap {
				t.Fatalf("trial %d: edge flow %d violates capacity %d", trial, f, e.cap)
			}
			net[e.u] -= f
			net[e.v] += f
		}
		for v := 0; v < n; v++ {
			if v == s || v == t0 {
				continue
			}
			if net[v] != 0 {
				t.Fatalf("trial %d: conservation violated at node %d: %d", trial, v, net[v])
			}
		}
		if net[s] != -net[t0] {
			t.Fatalf("trial %d: source outflow %d != sink inflow %d", trial, -net[s], net[t0])
		}
	}
}

func TestMaxFlowEqualsMinCut(t *testing.T) {
	rng := mathx.NewRNG(99)
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(9) + 3
		g := NewNetwork(n, 4*n)
		s, t0 := 0, n-1
		type edge struct {
			u, v int
			cap  int32
		}
		var edges []edge
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int32(rng.Intn(8))
			g.AddEdge(u, v, c)
			edges = append(edges, edge{u, v, c})
		}
		val := g.MaxFlowDinic(s, t0)
		reach := g.MinCutFromSource(s)
		if !reach[s] {
			t.Fatal("source not reachable from itself")
		}
		if reach[t0] && val > 0 {
			t.Fatal("sink reachable in residual graph after max flow")
		}
		var cut int64
		for _, e := range edges {
			if reach[e.u] && !reach[e.v] {
				cut += int64(e.cap)
			}
		}
		if cut != val {
			t.Fatalf("trial %d: min cut %d != max flow %d", trial, cut, val)
		}
	}
}

func TestMinCostMaxFlow(t *testing.T) {
	// Two paths of equal capacity, different cost: flow must prefer cheap.
	g := NewNetwork(4, 4)
	g.AddEdgeCost(0, 1, 1, 1)
	g.AddEdgeCost(0, 2, 1, 10)
	g.AddEdgeCost(1, 3, 1, 1)
	g.AddEdgeCost(2, 3, 1, 10)
	f, c := g.MinCostMaxFlow(0, 3)
	if f != 2 || c != 22 {
		t.Errorf("flow,cost = %d,%d; want 2,22", f, c)
	}

	// Cheaper to reroute: classic negative-reduced-cost case.
	g = NewNetwork(4, 4)
	g.AddEdgeCost(0, 1, 2, 1)
	g.AddEdgeCost(1, 3, 1, 1)
	g.AddEdgeCost(1, 2, 2, 1)
	g.AddEdgeCost(2, 3, 2, 1)
	f, c = g.MinCostMaxFlow(0, 3)
	if f != 2 {
		t.Errorf("flow = %d, want 2", f)
	}
	if c != 2+3 { // path 0-1-3 cost 2, path 0-1-2-3 cost 3
		t.Errorf("cost = %d, want 5", c)
	}
}

func TestMinCostMatchesMaxFlowValue(t *testing.T) {
	rng := mathx.NewRNG(31)
	for trial := 0; trial < 30; trial++ {
		nl := rng.Intn(8) + 1
		nr := rng.Intn(8) + 1
		g, _, s, t0 := buildRandomBipartite(rng, nl, nr, 0.4)
		want := g.MaxFlowDinic(s, t0)
		g.Reset()
		got, _ := g.MinCostMaxFlow(s, t0)
		if got != want {
			t.Fatalf("trial %d: mincost flow %d != maxflow %d", trial, got, want)
		}
	}
}

func TestHopcroftKarpKnown(t *testing.T) {
	// Perfect matching on a 3x3 cycle-ish graph.
	adj := [][]int32{{0, 1}, {1, 2}, {0, 2}}
	ml, mr, size := HopcroftKarp(3, 3, adj)
	if size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	for u, v := range ml {
		if v == -1 || mr[v] != int32(u) {
			t.Fatalf("inconsistent matching: ml=%v mr=%v", ml, mr)
		}
	}
	// A graph where greedy can be suboptimal but HK must find 2.
	adj = [][]int32{{0}, {0, 1}}
	_, _, size = HopcroftKarp(2, 2, adj)
	if size != 2 {
		t.Errorf("size = %d, want 2", size)
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	ml, mr, size := HopcroftKarp(0, 0, nil)
	if size != 0 || len(ml) != 0 || len(mr) != 0 {
		t.Error("empty graph should yield empty matching")
	}
	_, _, size = HopcroftKarp(3, 0, make([][]int32, 3))
	if size != 0 {
		t.Error("no right vertices should yield 0")
	}
}

func TestGreedyMatchingIsValidAndBelowOptimal(t *testing.T) {
	rng := mathx.NewRNG(55)
	if err := quick.Check(func(seed uint32) bool {
		r := mathx.NewRNG(uint64(seed) ^ rng.Uint64())
		nl := r.Intn(10) + 1
		nr := r.Intn(10) + 1
		adj := make([][]int32, nl)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if r.Float64() < 0.3 {
					adj[u] = append(adj[u], int32(v))
				}
			}
		}
		gl, gr, gs := GreedyMatching(nl, nr, adj)
		_, _, hs := HopcroftKarp(nl, nr, adj)
		if gs > hs {
			return false
		}
		// Greedy is maximal: size at least half of optimum.
		if 2*gs < hs {
			return false
		}
		// Validity.
		for u, v := range gl {
			if v != -1 && gr[v] != int32(u) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNetworkPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewNetwork(0, 0) },
		func() { NewNetwork(2, -1) },
		func() { g := NewNetwork(2, 1); g.AddEdge(0, 5, 1) },
		func() { g := NewNetwork(2, 1); g.AddEdge(-1, 0, 1) },
		func() { g := NewNetwork(2, 1); g.AddEdge(0, 1, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	g := NewNetwork(3, 2)
	e := g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 4)
	if g.MaxFlowDinic(0, 2) != 4 {
		t.Fatal("first solve")
	}
	g.Reset()
	if g.EdgeFlow(e) != 0 {
		t.Fatal("Reset did not zero flow")
	}
	if g.MaxFlowDinic(0, 2) != 4 {
		t.Fatal("re-solve after Reset")
	}
}

// TestBipartiteMatcherReuse runs one matcher across many batch windows of
// varying size (the GR usage pattern) and checks every solve agrees with a
// fresh one-shot HopcroftKarp, then verifies the scratch buffers stop
// allocating once grown to the largest window.
func TestBipartiteMatcherReuse(t *testing.T) {
	rng := mathx.NewRNG(41)
	var m BipartiteMatcher
	sizes := []int{17, 200, 3, 64, 200, 1, 150}
	for round, n := range sizes {
		adj := make([][]int32, n)
		for u := range adj {
			deg := rng.Intn(5)
			for k := 0; k < deg; k++ {
				adj[u] = append(adj[u], int32(rng.Intn(n)))
			}
		}
		gotL, gotR, gotSize := m.Match(n, n, adj)
		wantL, wantR, wantSize := HopcroftKarp(n, n, adj)
		if gotSize != wantSize {
			t.Fatalf("round %d: reused matcher size %d, one-shot %d", round, gotSize, wantSize)
		}
		// Matchings may differ pair-by-pair only if sizes differ — both are
		// produced by the same deterministic algorithm, so require equality.
		for u := range gotL {
			if gotL[u] != wantL[u] {
				t.Fatalf("round %d: matchL[%d] = %d, want %d", round, u, gotL[u], wantL[u])
			}
		}
		for v := range gotR {
			if gotR[v] != wantR[v] {
				t.Fatalf("round %d: matchR[%d] = %d, want %d", round, v, gotR[v], wantR[v])
			}
		}
	}
	// Steady state: re-solving a window no larger than the biggest seen
	// must not allocate (the GR hot path claim).
	adj := make([][]int32, 100)
	for u := range adj {
		adj[u] = append(adj[u], int32((u*7)%100), int32((u*13)%100))
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Match(100, 100, adj)
	})
	if allocs != 0 {
		t.Errorf("reused BipartiteMatcher allocates %v per solve, want 0", allocs)
	}
}

// TestNetworkLazyParts: the adjacency index is rebuilt after edges are
// added to a solved network, and the cost array exists only once a
// non-zero cost was added (earlier edges then cost zero).
func TestNetworkLazyParts(t *testing.T) {
	g := NewNetwork(4, 1)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 3, 2)
	if got := g.MaxFlowDinic(0, 3); got != 2 {
		t.Fatalf("first solve = %d, want 2", got)
	}
	if g.cost != nil {
		t.Fatal("cost array allocated on a zero-cost network")
	}
	// A second, costly route: 0-2-3 at cost 5 per unit, capacity 4.
	g.AddEdgeCost(0, 2, 4, 2)
	g.AddEdgeCost(2, 3, 4, 3)
	if len(g.cost) != len(g.to) || g.cost[0] != 0 || g.cost[2] != 0 {
		t.Fatalf("cost array %v does not back-fill zero for the %d earlier edges", g.cost, 2)
	}
	g.Reset()
	f, c := g.MinCostMaxFlow(0, 3)
	if f != 6 || c != 4*5 {
		t.Fatalf("flow,cost = %d,%d; want 6,20", f, c)
	}
}

// dinicReference is MaxFlowDinic as first written — a recursive
// blocking-flow search restarted from s after every augmentation, over a
// full BFS level graph. The solver must reproduce its flow arc for arc:
// the guide's pair layout is read off the per-edge flows.
func dinicReference(g *Network, s, t int) int64 {
	g.index()
	level := make([]int32, g.n)
	iter := make([]int32, g.n)
	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := []int32{int32(s)}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range g.out(u) {
				if v := g.to[id]; level[v] < 0 && g.res[id] > 0 {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return level[t] >= 0
	}
	var dfs func(u int32, limit int32) int32
	dfs = func(u int32, limit int32) int32 {
		if int(u) == t {
			return limit
		}
		for end := g.start[u+1]; iter[u] < end; iter[u]++ {
			id := g.adj[iter[u]]
			v, r := g.to[id], g.res[id]
			if level[v] != level[u]+1 || r <= 0 {
				continue
			}
			if pushed := dfs(v, min(limit, r)); pushed > 0 {
				g.push(id, pushed)
				return pushed
			}
		}
		level[u] = -1
		return 0
	}
	var total int64
	for bfs() {
		copy(iter, g.start)
		for f := dfs(int32(s), math.MaxInt32); f > 0; f = dfs(int32(s), math.MaxInt32) {
			total += int64(f)
		}
	}
	return total
}

// TestDinicMatchesReference: on random networks — general digraphs with
// parallel arcs and cycles, and the guide's source/cells/sink layering
// with long residual detours — MaxFlowDinic leaves exactly the residual
// capacities the reference does, including when it extends a flow an
// earlier solve left behind.
func TestDinicMatchesReference(t *testing.T) {
	// build returns a network, its source and sink, and a third node the
	// first solve routes a partial flow to.
	build := func(seed uint64) (g *Network, s, t, mid int) {
		rng := mathx.NewRNG(seed)
		if seed%2 == 0 {
			n := 3 + rng.Intn(30)
			g = NewNetwork(n, 0)
			for e := rng.Intn(6 * n); e > 0; e-- {
				g.AddEdge(rng.Intn(n), rng.Intn(n), int32(rng.Intn(9)))
			}
			return g, 0, n - 1, n / 2
		}
		nl, nr := 1+rng.Intn(40), 1+rng.Intn(40)
		g = NewNetwork(nl+nr+2, 0)
		src, snk := nl+nr, nl+nr+1
		for i := 0; i < nl; i++ {
			g.AddEdge(src, i, int32(1+rng.Intn(6)))
		}
		for j := 0; j < nr; j++ {
			g.AddEdge(nl+j, snk, int32(1+rng.Intn(6)))
		}
		for i := 0; i < nl; i++ {
			for j := 0; j < nr; j++ {
				if d := i - j*nl/nr; d >= -2 && d <= 2 && rng.Float64() < 0.6 {
					g.AddEdge(i, nl+j, int32(1+rng.Intn(6)))
				}
			}
		}
		return g, src, snk, nl
	}
	for seed := uint64(0); seed < 400; seed++ {
		got, s, sink, mid := build(seed)
		want, _, _, _ := build(seed)
		if a, b := got.MaxFlowDinic(s, mid), dinicReference(want, s, mid); a != b {
			t.Fatalf("seed %d: partial flow %d, reference %d", seed, a, b)
		}
		if a, b := got.MaxFlowDinic(s, sink), dinicReference(want, s, sink); a != b {
			t.Fatalf("seed %d: flow %d, reference %d", seed, a, b)
		}
		if !slices.Equal(got.res, want.res) {
			t.Fatalf("seed %d: residual capacities differ from the reference's", seed)
		}
	}
}

// guideNetwork has the shape of Algorithm 1's network: worker and task
// cells over slots × areas on a line, each with a random count (a quarter
// of them empty), a source edge per worker cell, a sink edge per task
// cell, and an edge from each non-empty worker cell to every non-empty
// task cell from one slot earlier to three slots later whose area is
// within reach × (slot gap + 1), with the smaller count as capacity. A
// short reach makes Dinic run many phases on it.
func guideNetwork(seed uint64) (g *Network, s, t int) {
	rng := mathx.NewRNG(seed)
	slots, areas, reach := 2+rng.Intn(10), 2+rng.Intn(30), rng.Intn(3)
	count := func() int32 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return int32(1 + rng.Intn(8))
	}
	wc, tc := make([]int32, slots*areas), make([]int32, slots*areas)
	for i := range wc {
		wc[i], tc[i] = count(), count()
	}
	n := 2*slots*areas + 2
	s, t = n-2, n-1
	g = NewNetwork(n, 0)
	for i := range wc {
		g.AddEdge(s, i, wc[i])
		g.AddEdge(slots*areas+i, t, tc[i])
	}
	for i, w := range wc {
		if w == 0 {
			continue
		}
		slot, area := i/areas, i%areas
		for ts := max(0, slot-1); ts < min(slots, slot+4); ts++ {
			r := reach * (ts - slot + 1)
			for ta := max(0, area-r); ta <= min(areas-1, area+r); ta++ {
				if j := ts*areas + ta; tc[j] > 0 {
					g.AddEdge(i, slots*areas+j, min(w, tc[j]))
				}
			}
		}
	}
	return g, s, t
}

// checkFlow reports the first arc whose flow leaves [0, capacity] or node
// other than those in terminals where flow is not conserved; caps holds
// every forward edge's capacity before the solve.
func checkFlow(g *Network, caps []int32, terminals ...int) error {
	net := make([]int64, g.n)
	for id := 0; id < len(g.res); id += 2 {
		f := g.EdgeFlow(id)
		if f < 0 || f > caps[id/2] || g.res[id] != caps[id/2]-f {
			return fmt.Errorf("edge %d: flow %d, residual %d, capacity %d", id, f, g.res[id], caps[id/2])
		}
		u, v := g.EdgeEndpoints(id)
		net[u] -= int64(f)
		net[v] += int64(f)
	}
	for v, x := range net {
		if x != 0 && !slices.Contains(terminals, v) {
			return fmt.Errorf("node %d: net inflow %d", v, x)
		}
	}
	return nil
}

func capacities(g *Network) []int32 {
	caps := make([]int32, g.NumEdges())
	for id := range caps {
		caps[id] = g.res[2*id] + g.res[2*id+1]
	}
	return caps
}

// TestDinicGuideNetworks: on guide-shaped networks, where a short reach
// makes Dinic run many phases with long augmenting paths, MaxFlowDinic
// finds the reference's flow value, leaves its residual capacities arc
// for arc, and leaves a valid flow.
func TestDinicGuideNetworks(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		got, s, sink := guideNetwork(seed)
		want, _, _ := guideNetwork(seed)
		caps := capacities(got)
		if a, b := got.MaxFlowDinic(s, sink), dinicReference(want, s, sink); a != b {
			t.Fatalf("guide network %d: flow %d, reference %d", seed, a, b)
		}
		if !slices.Equal(got.res, want.res) {
			t.Fatalf("guide network %d: residual capacities differ from the reference's", seed)
		}
		if err := checkFlow(got, caps, s, sink); err != nil {
			t.Fatalf("guide network %d: %v", seed, err)
		}
	}
}

// FuzzMaxFlow: on a small network decoded from the input — a node count,
// then (tail, head, capacity) byte triples, source 0, sink n-1 —
// MaxFlowDinic finds MaxFlowFordFulkerson's value and leaves a valid flow.
func FuzzMaxFlow(f *testing.F) {
	f.Add([]byte{4, 0, 1, 3, 1, 3, 2, 0, 2, 1, 2, 3, 5, 1, 2, 1})
	f.Add([]byte{6, 0, 1, 16, 0, 2, 13, 1, 2, 10, 2, 1, 4, 1, 3, 12, 3, 2, 9, 2, 4, 14, 4, 3, 7, 3, 5, 20, 4, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%30
		build := func() *Network {
			g := NewNetwork(n, 0)
			for b := data[1:]; len(b) >= 3; b = b[3:] {
				g.AddEdge(int(b[0])%n, int(b[1])%n, int32(b[2]%32))
			}
			return g
		}
		got, want := build(), build()
		caps := capacities(got)
		if a, b := got.MaxFlowDinic(0, n-1), want.MaxFlowFordFulkerson(0, n-1); a != b {
			t.Fatalf("Dinic %d, Ford-Fulkerson %d", a, b)
		}
		if err := checkFlow(got, caps, 0, n-1); err != nil {
			t.Fatal(err)
		}
	})
}
