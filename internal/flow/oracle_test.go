package flow

// The reference algorithms the solvers are tested against. Nothing
// outside the tests calls them.

// MaxFlowFordFulkerson computes max flow using the Edmonds–Karp variant
// (BFS augmenting paths), the algorithm the paper cites for Algorithm 1:
// the oracle MaxFlowDinic, the solver the guide uses, is checked against.
func (g *Network) MaxFlowFordFulkerson(s, t int) int64 {
	if s == t {
		return 0
	}
	g.index()
	parentEdge := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	var total int64
	for {
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, int32(s))
		parentEdge[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range g.out(u) {
				v := g.to[id]
				if parentEdge[v] == -1 && g.res[id] > 0 {
					parentEdge[v] = id
					if int(v) == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return total
		}
		total += int64(g.augment(parentEdge, s, t))
	}
}

// MinCutFromSource returns the set of nodes reachable from s in the residual
// graph after a max-flow computation — the "canonical reachability min-cut"
// the paper's Lemma 2 uses. reachable[v] is true iff v is on the source side.
func (g *Network) MinCutFromSource(s int) []bool {
	g.index()
	reachable := make([]bool, g.n)
	reachable[s] = true
	stack := []int32{int32(s)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.out(u) {
			v := g.to[id]
			if !reachable[v] && g.res[id] > 0 {
				reachable[v] = true
				stack = append(stack, v)
			}
		}
	}
	return reachable
}

// GreedyMatching computes a maximal (not maximum) matching by scanning left
// vertices in order and taking the first free neighbour: a lower bound
// for the maximum matchings the tests check.
func GreedyMatching(nLeft, nRight int, adj [][]int32) (matchL, matchR []int32, size int) {
	matchL = make([]int32, nLeft)
	matchR = make([]int32, nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	for u := 0; u < nLeft; u++ {
		for _, v := range adj[u] {
			if matchR[v] == -1 {
				matchL[u] = v
				matchR[v] = int32(u)
				size++
				break
			}
		}
	}
	return matchL, matchR, size
}
