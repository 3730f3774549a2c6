package flow

// BipartiteMatcher computes maximum-cardinality bipartite matchings with
// reusable scratch state, so repeated solves — GR runs one per batch
// window — allocate nothing once the buffers have grown to the largest
// population seen. The zero value is ready to use. A matcher is not safe
// for concurrent use.
type BipartiteMatcher struct {
	matchL []int32
	matchR []int32
	dist   []int32
	queue  []int32
}

// grow returns buf resized to n, reusing capacity when possible.
func grow(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// Match computes a maximum matching in a bipartite graph given as an
// adjacency list from left vertices to right vertices; adj[u] lists the
// right-vertex ids (0..nRight-1) adjacent to left vertex u.
//
// It returns matchL (for each left vertex, the matched right vertex or -1)
// and matchR (the reverse), plus the matching size. Runs in O(E·√V), which
// is what makes OPT computable at the paper's 20k–40k scales. The returned
// slices are the matcher's internal buffers: they stay valid until the
// next Match call, and callers needing to retain them longer must copy.
func (m *BipartiteMatcher) Match(nLeft, nRight int, adj [][]int32) (matchL, matchR []int32, size int) {
	m.matchL = grow(m.matchL, nLeft)
	m.matchR = grow(m.matchR, nRight)
	matchL, matchR = m.matchL, m.matchR
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	if nLeft == 0 || nRight == 0 {
		return matchL, matchR, 0
	}

	const inf = int32(1) << 30
	m.dist = grow(m.dist, nLeft)
	dist := m.dist
	if cap(m.queue) < nLeft {
		m.queue = make([]int32, 0, nLeft)
	}

	bfs := func() bool {
		queue := m.queue[:0]
		for u := range dist {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, int32(u))
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		m.queue = queue[:0]
		return found
	}

	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < nLeft; u++ {
			if matchL[u] == -1 && dfs(int32(u)) {
				size++
			}
		}
	}
	return matchL, matchR, size
}

// HopcroftKarp is the one-shot form of BipartiteMatcher.Match: it
// allocates fresh result slices the caller may keep. Prefer a reused
// BipartiteMatcher on repeated solves.
func HopcroftKarp(nLeft, nRight int, adj [][]int32) (matchL, matchR []int32, size int) {
	var m BipartiteMatcher
	return m.Match(nLeft, nRight, adj)
}
